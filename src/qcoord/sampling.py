"""Seeded random generators for states, measurements, games and signal tables.

Everything takes an explicit ``numpy.random.Generator`` so that callers own
the seed and runs reproduce bit for bit.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ValidationError
from .games import BehaviorTable, Game
from .quantum import (
    DensityMatrix,
    Measurement,
    projective_pair,
    pure_state,
)
from .signals import JointSignalDistribution


def complex_gaussian(rng, shape) -> np.ndarray:
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def random_state_vector(dim: int, rng) -> np.ndarray:
    v = complex_gaussian(rng, dim)
    return v / np.linalg.norm(v)


def random_pure_density(dim: int, rng) -> DensityMatrix:
    return pure_state(random_state_vector(dim, rng))


def random_density_matrix(dim: int, rng) -> DensityMatrix:
    """Full-rank random state G G^dagger / tr(G G^dagger)."""
    g = complex_gaussian(rng, (dim, dim))
    m = g @ g.conj().T
    return DensityMatrix(m / np.trace(m).real)


def random_projective_pair(rng) -> Measurement:
    return projective_pair(rng.uniform(0.0, math.pi))


def random_povm(dim: int, n_outcomes: int, rng) -> Measurement:
    """General POVM: random positive parts whitened by their total.

    A small identity ridge keeps the total comfortably invertible so the
    whitening stays accurate.
    """
    parts = []
    for _ in range(n_outcomes):
        g = complex_gaussian(rng, (dim, dim))
        parts.append(g @ g.conj().T + 0.1 * np.eye(dim))
    total = sum(parts)
    evals, evecs = np.linalg.eigh((total + total.conj().T) / 2.0)
    if evals.min() <= 0:
        raise ValidationError("degenerate sample; total of positive parts not invertible")
    inv_sqrt = (evecs * (evals ** -0.5)) @ evecs.conj().T
    return Measurement(tuple(inv_sqrt @ part @ inv_sqrt for part in parts))


def random_prior(size: int, rng) -> np.ndarray:
    w = rng.random(size) + 0.1
    return w / w.sum()


def random_game(rng, n_states=(2, 2), n_actions=(2, 2), payoff_scale: float = 1.0) -> Game:
    """Random payoff tensor over fresh labels, random independent priors."""
    na, nb = n_actions
    nf, nw = n_states
    return Game(
        states_a=tuple(f"f{i}" for i in range(nf)),
        states_b=tuple(f"w{i}" for i in range(nw)),
        prior_a=random_prior(nf, rng),
        prior_b=random_prior(nw, rng),
        actions_a=tuple(f"a{i}" for i in range(na)),
        actions_b=tuple(f"b{i}" for i in range(nb)),
        payoff=payoff_scale * rng.random((na, nb, nf, nw)),
    )


def random_local_mixture_behavior(game: Game, rng, n_components: int = 4) -> BehaviorTable:
    """Shared-randomness behavior: a mixture of independent local responses.

    Each component draws a stochastic response per player; the mixture
    weight plays the role of the shared random variable.
    """
    na, nb = len(game.actions_a), len(game.actions_b)
    nf, nw = len(game.states_a), len(game.states_b)
    weights = random_prior(n_components, rng)
    q = np.zeros((na, nb, nf, nw))
    for weight in weights:
        pa = rng.random((nf, na)) + 1e-6
        pa /= pa.sum(axis=1, keepdims=True)
        pb = rng.random((nw, nb)) + 1e-6
        pb /= pb.sum(axis=1, keepdims=True)
        q += weight * np.einsum("fa,wb->abfw", pa, pb)
    return BehaviorTable(q)


def random_classical_signals(
    rng,
    *,
    n_s: int = 2,
    n_t: int = 2,
    n_phi: int = 2,
    n_psi: int = 2,
    n_hidden: int | None = None,
) -> JointSignalDistribution:
    """Classically generated signals s = f_a(phi, x), t = f_b(psi, x).

    The hidden variable x has a random finite support and a random
    distribution; both response functions are drawn uniformly.  The output
    is state-consistent and lies in the classical hull by construction.
    """
    if n_hidden is None:
        n_hidden = int(rng.integers(1, 5))
    x_weights = random_prior(n_hidden, rng)
    prior_a = random_prior(n_phi, rng)
    prior_b = random_prior(n_psi, rng)
    f_a = rng.integers(0, n_s, size=(n_phi, n_hidden))
    f_b = rng.integers(0, n_t, size=(n_psi, n_hidden))
    table = np.zeros((n_s, n_t, n_phi, n_psi))
    for x in range(n_hidden):
        for phi in range(n_phi):
            for psi in range(n_psi):
                table[f_a[phi, x], f_b[psi, x], phi, psi] += (
                    x_weights[x] * prior_a[phi] * prior_b[psi]
                )
    return JointSignalDistribution(
        s_labels=tuple(str(i) for i in range(n_s)),
        t_labels=tuple(str(i) for i in range(n_t)),
        phi_labels=tuple(str(i) for i in range(n_phi)),
        psi_labels=tuple(str(i) for i in range(n_psi)),
        table=table,
    )
