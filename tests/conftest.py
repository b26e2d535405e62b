import itertools
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
from qcoord.fileio import FORMAT_VERSION
from qcoord.strategies import chsh_reference_strategy
from qcoord.tolerances import MASS_FLOOR
from sampling import random_classical_signals

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


# (signals per player, states of A, states of B) with at most 1024 hull vertices
HULL_SHAPES = [(2, f, w) for f in range(2, 6) for w in range(2, 6)] + [
    (3, f, w) for f in range(2, 5) for w in range(2, 5) if f + w <= 6
]


def hull_case(kind, rng, n_out, n_phi, n_psi):
    """A distribution of one construction kind, and whether it lies in the hull."""
    if kind == "hidden":
        return joint_from_conditionals(stochastic_mixture(rng, n_out, n_phi, n_psi), rng), True
    if kind == "deterministic":
        return random_classical_signals(rng, n_s=n_out, n_t=n_out, n_phi=n_phi, n_psi=n_psi,
                                        n_hidden=int(rng.integers(1, 5))), True
    if kind == "chsh":
        return joint_from_conditionals(chsh_embedded(rng, n_out, n_phi, n_psi), rng), False
    blend = 0.5 * chsh_embedded(rng, n_out, n_phi, n_psi) + 0.5 * stochastic_mixture(
        rng, n_out, n_phi, n_psi)
    return joint_from_conditionals(blend, rng), None


def dense_hull_program(dist, mass_floor=MASS_FLOOR):
    """The L1-residual hull program (c, A, b) as dense arrays, built pair by pair.

    Rows are the cells (s, t, phi, psi) in C order whose (phi, psi) mass
    exceeds the floor, then the normalization row; columns are the
    deterministic response pairs, A's response major, then one +slack and
    one -slack per cell.
    """
    n_s, n_t, n_phi, n_psi = dist.shape
    marginal = dist.table.sum(axis=(0, 1))
    cells = [(s, t, f, w) for s, t, f, w in itertools.product(
        range(n_s), range(n_t), range(n_phi), range(n_psi)) if marginal[f, w] > mass_floor]
    row = {cell: i for i, cell in enumerate(cells)}
    pairs = list(itertools.product(itertools.product(range(n_s), repeat=n_phi),
                                   itertools.product(range(n_t), repeat=n_psi)))
    vertices = np.zeros((len(cells) + 1, len(pairs)))
    for v, (response_a, response_b) in enumerate(pairs):
        for f, w in itertools.product(range(n_phi), range(n_psi)):
            cell = (response_a[f], response_b[w], f, w)
            if cell in row:
                vertices[row[cell], v] = 1.0
        vertices[-1, v] = 1.0
    slack = np.vstack([np.eye(len(cells)), np.zeros((1, len(cells)))])
    A = np.hstack([vertices, slack, -slack])
    b = np.array([dist.table[cell] / marginal[cell[2], cell[3]] for cell in cells] + [1.0])
    c = np.concatenate([np.zeros(len(pairs)), np.ones(2 * len(cells))])
    return c, A, b


class DenseColumns:
    """An explicit constraint matrix as the column source ``simplex.solve_lp`` reads.

    ``mirror`` names no column's negative, so every pivot takes the plain
    ratio test.
    """

    def __init__(self, matrix):
        self.matrix = np.asarray(matrix, dtype=float)
        self.shape = self.matrix.shape

    def column(self, col):
        return slice(None), self.matrix[:, col]

    def columns(self, cols):
        return self.matrix[:, cols]

    def prices(self, duals):
        return duals @ self.matrix

    def mirror(self, cols):
        return np.full(np.size(cols), -1)


def state_document(rho) -> dict:
    """A state document, as ``fileio.load_state`` reads it: rows of [real, imag] pairs."""
    stacked = np.stack([rho.matrix.real, rho.matrix.imag], axis=-1)
    return {"format": FORMAT_VERSION, "kind": "state", "matrix": stacked.tolist()}


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
