import math
from pathlib import Path

import numpy as np
import pytest

from qcoord import (
    JointSignalDistribution,
    angle_family,
    chsh_game,
    distribution_from_quantum,
    singlet_state,
)
from qcoord.strategies import chsh_reference_strategy

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def singlet_table(theta1: float, theta2: float) -> np.ndarray:
    """Closed-form outcome table of the singlet at projective angles."""
    delta = theta2 - theta1
    return 0.5 * np.array([
        [math.sin(delta) ** 2, math.cos(delta) ** 2],
        [math.cos(delta) ** 2, math.sin(delta) ** 2],
    ])


def joint_from_conditionals(q: np.ndarray, rng) -> JointSignalDistribution:
    """Joint distribution of conditionals q[s, t, phi, psi] under random state priors."""
    n_phi, n_psi = q.shape[2:]
    prior_a = rng.dirichlet(np.full(n_phi, 4.0))
    prior_b = rng.dirichlet(np.full(n_psi, 4.0))
    labels = [tuple(str(i) for i in range(n)) for n in q.shape]
    return JointSignalDistribution(*labels,
                                   q * prior_a[None, None, :, None] * prior_b[None, None, None, :])


def stochastic_mixture(rng, n_out: int, n_phi: int, n_psi: int, n_hidden: int = 8) -> np.ndarray:
    """Conditionals of a hidden variable with local stochastic responses: inside the hull."""
    q = np.zeros((n_out, n_out, n_phi, n_psi))
    for weight in rng.dirichlet(np.ones(n_hidden)):
        response_a = rng.dirichlet(np.ones(n_out), size=n_phi)   # [phi, s]
        response_b = rng.dirichlet(np.ones(n_out), size=n_psi)   # [psi, t]
        q += weight * np.einsum("fs,wt->stfw", response_a, response_b)
    return q


def chsh_embedded(rng, n_out: int, n_phi: int, n_psi: int) -> np.ndarray:
    """Singlet conditionals at the CHSH angles on states 0 and 1, random angles elsewhere.

    Outcomes above 1 never occur.  The (0, 1) x (0, 1) block wins the CHSH
    game with probability cos^2(pi/8) > 3/4, so the table lies outside the hull.
    """
    angles_a = np.concatenate([[0.0, math.pi / 4], rng.uniform(0.0, math.pi, n_phi - 2)])
    angles_b = np.concatenate([[-math.pi / 8, math.pi / 8], rng.uniform(0.0, math.pi, n_psi - 2)])
    q = np.zeros((n_out, n_out, n_phi, n_psi))
    for f, w in np.ndindex(n_phi, n_psi):
        q[:2, :2, f, w] = singlet_table(angles_a[f], angles_b[w])
    return q


def reference_families(game):
    strategy = chsh_reference_strategy()
    fam_a = angle_family({s: strategy.angles_a[s] for s in game.states_a})
    fam_b = angle_family({s: strategy.angles_b[s] for s in game.states_b})
    return fam_a, fam_b


@pytest.fixture(scope="session")
def fixtures_dir() -> Path:
    return FIXTURES


@pytest.fixture(scope="session")
def chsh_quantum_dist():
    """Singlet measured at angles equal to the private states, uniform priors."""
    game = chsh_game()
    fam_a, fam_b = reference_families(game)
    return distribution_from_quantum(singlet_state(), fam_a, fam_b,
                                     game.prior_a, game.prior_b)
