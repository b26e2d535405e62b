"""The hull program solved from its best-fitting vertex with implicit columns.

Every reference here is built independently and densely, pair by pair, by
``conftest.dense_hull_program``; none of these tests needs scipy.
"""

import tracemalloc

import numpy as np
import pytest

from qcoord import JointSignalDistribution, signals, simplex
from qcoord.simplex import solve_lp
from qcoord.tolerances import LP_TOL, MASS_FLOOR
from conftest import (
    HULL_SHAPES,
    chsh_embedded,
    dense_hull_program,
    hull_case,
    joint_from_conditionals,
    stochastic_mixture,
)


def _cases():
    """Signals x states 2x2, 2x3, 3x3 and 2x5; in the 2x3 tables one (phi, psi) is below the floor."""
    rng = np.random.default_rng(41)
    cases = []
    for n_out, n_states in ((2, 2), (2, 3), (3, 3), (2, 5)):
        for q in (stochastic_mixture(rng, n_out, n_states, n_states),
                  chsh_embedded(rng, n_out, n_states, n_states)):
            dist = joint_from_conditionals(q, rng)
            if n_states == 3 and n_out == 2:
                table = dist.table.copy()
                table[:, :, 2, 1] = 0.0
                table /= table.sum()
                labels = [tuple(str(i) for i in range(n)) for n in table.shape]
                dist = JointSignalDistribution(*labels, table)
            cases.append(dist)
    return cases


CASES = _cases()


def test_one_case_has_a_cell_below_the_mass_floor():
    floored = [d for d in CASES if (d.state_marginal() <= MASS_FLOOR).any()]
    assert len(floored) == 2
    assert all((d.state_marginal() <= MASS_FLOOR).sum() == 1 for d in floored)


@pytest.mark.parametrize("dist", CASES)
def test_implicit_columns_and_prices_match_the_dense_program(dist):
    c, A, b = dense_hull_program(dist)
    costs, columns, b_eq, _ = signals._hull_program(dist)
    assert columns.shape == A.shape
    assert np.array_equal(costs, c)
    assert np.max(np.abs(b_eq - b)) <= 1e-12
    assert np.array_equal(columns.columns(np.arange(A.shape[1])), A)
    for col in range(A.shape[1]):
        rows, value = columns.column(col)
        dense = np.zeros(A.shape[0])
        dense[rows] = value
        assert np.array_equal(dense, A[:, col]), col
    rng = np.random.default_rng(7)
    for _ in range(5):
        duals = rng.standard_normal(A.shape[0])
        out = np.full(A.shape[1], np.nan)
        columns.prices(duals, out)
        assert np.max(np.abs(out - duals @ A)) <= 1e-12


@pytest.mark.parametrize("dist", CASES)
def test_mirrors_pair_each_cells_slacks(dist):
    _, A, _ = dense_hull_program(dist)
    _, columns, _, _ = signals._hull_program(dist)
    mirrors = columns.mirror(np.arange(A.shape[1]))
    n_vertices = columns.n_vertices
    assert np.all(mirrors[:n_vertices] == -1)
    slacks = np.arange(n_vertices, A.shape[1])
    assert np.array_equal(A[:, mirrors[slacks]], -A[:, slacks])
    assert np.array_equal(mirrors[mirrors[slacks]], slacks)


@pytest.mark.parametrize("dist", CASES)
def test_unit_names_each_signed_unit_column_and_no_vertex(dist):
    _, A, _ = dense_hull_program(dist)
    _, columns, _, _ = signals._hull_program(dist)
    rows, signs = columns.unit(np.arange(A.shape[1]))
    assert np.all(rows[:columns.n_vertices] == -1)
    for col in range(A.shape[1]):
        nonzero = A[:, col].nonzero()[0]
        if nonzero.size == 1 and abs(A[nonzero[0], col]) == 1.0:
            assert (rows[col], signs[col]) == (nonzero[0], A[nonzero[0], col]), col
        else:
            assert rows[col] == -1, col


@pytest.mark.parametrize("dist", CASES)
def test_refactored_inverse_inverts_the_dense_basis(dist):
    # at the starting basis, then after random pivots of columns whose
    # entry in the leaving row is well away from zero
    _, A, _ = dense_hull_program(dist)
    _, columns, b, q = signals._hull_program(dist)
    lp = simplex._Basis(columns, b, signals._starting_basis(columns, q))
    rng = np.random.default_rng(17)
    for _ in range(12):
        assert np.max(np.abs(lp.inverse @ A[:, lp.basis] - np.eye(b.size))) <= 1e-12
        col = int(rng.integers(A.shape[1]))
        column = lp.entering(col)
        rows = (np.abs(column) > 0.1).nonzero()[0]
        if col not in lp.basis and rows.size:
            lp.pivot(int(rng.choice(rows)), col, column)
            lp.refactor()
    assert np.count_nonzero(lp.basis < columns.n_vertices) > 1


@pytest.mark.parametrize("dist", CASES)
def test_starting_basis_is_feasible_and_fits_twice_the_best_vertex_misfit(dist):
    c, A, b = dense_hull_program(dist)
    _, columns, _, q = signals._hull_program(dist)
    basis = signals._starting_basis(columns, q)
    values = np.linalg.solve(A[:, basis], b)
    assert values.min() >= -1e-12
    n_vertices = columns.n_vertices
    assert np.count_nonzero(basis < n_vertices) == 1
    best_score = float(np.max(b[:-1] @ A[:-1, :n_vertices]))
    n_valid = int((dist.state_marginal() > MASS_FLOOR).sum())
    assert c[basis] @ values == pytest.approx(2.0 * (n_valid - best_score), abs=1e-12)


def certified_residual(dist):
    """The hull program's optimum, with its primal-dual certificate checked.

    The implicit program is solved from its starting basis; x and the duals
    are then checked against the dense program, so a feasible x whose cost
    equals a feasible dual bound proves the residual optimal.
    """
    costs, columns, b_eq, q = signals._hull_program(dist)
    result = solve_lp(costs, columns, b_eq, basis=signals._starting_basis(columns, q))
    c, A, b = dense_hull_program(dist)
    assert np.max(np.abs(A @ result.x - b)) <= 1e-9
    assert result.x.min() >= 0.0
    assert np.min(c - result.duals @ A) >= -1e-9
    assert abs(result.duals @ b - result.objective) <= 1e-9
    return result.duals @ b


def test_hull_residual_has_a_primal_dual_optimality_certificate():
    # the first 40 programs of the HiGHS cross-check's generator
    rng = np.random.default_rng(2024)
    for index in range(40):
        kind = ("hidden", "deterministic", "chsh", "blend")[index % 4]
        n_out, n_phi, n_psi = HULL_SHAPES[int(rng.integers(len(HULL_SHAPES)))]
        dist, in_hull = hull_case(kind, rng, n_out, n_phi, n_psi)
        locality = signals._hull_membership(dist, LP_TOL)
        residual = certified_residual(dist)
        assert abs(residual - locality.residual) <= 1e-9, (kind, n_out, n_phi, n_psi)
        if in_hull is not None:
            assert locality.feasible is in_hull


@pytest.mark.parametrize("dist", CASES[:6])
def test_blands_rule_on_implicit_columns_reaches_the_dense_optimum(dist):
    costs, columns, b, q = signals._hull_program(dist)
    lp = simplex._Basis(columns, b, signals._starting_basis(columns, q))
    simplex._iterate(lp, costs, 100_000, bland_after=0)
    lp.refactor()
    assert costs[lp.basis] @ lp.values == pytest.approx(certified_residual(dist), abs=1e-9)


def test_16384_vertex_hull_builds_no_vertex_matrix():
    # one dense copy of the vertex columns would be 16384 x 196 cells x 8 B = 26 MB
    rng = np.random.default_rng(3)
    dist = joint_from_conditionals(stochastic_mixture(rng, 2, 7, 7), rng)
    tracemalloc.start()
    try:
        result = signals._hull_membership(dist, LP_TOL)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.feasible and result.residual <= LP_TOL
    assert peak < 16384 * 196 * 8 / 4
