import itertools
import math

import numpy as np
import pytest

from qcoord import SolverLimitReached, simplex
from qcoord.simplex import solve_lp
from conftest import DenseColumns


def brute_force_lp(c, A, b, tol=1e-9):
    """Oracle: scan every basic solution of Ax = b, x >= 0 for the minimum."""
    m, n = A.shape
    best = math.inf
    for cols in itertools.combinations(range(n), m):
        sub = A[:, cols]
        if abs(np.linalg.det(sub)) < 1e-12:
            continue
        x_basic = np.linalg.solve(sub, b)
        if x_basic.min() < -tol:
            continue
        x = np.zeros(n)
        x[list(cols)] = x_basic
        best = min(best, float(c @ x))
    return best


# min -x - 2y with x + y + s = 4, x + 3y + t = 6 -> optimum at (3, 1); the
# slack basis [2, 3] is feasible: x = y = 0, slacks = b
KNOWN_C = np.array([-1.0, -2.0, 0.0, 0.0])
KNOWN_A = DenseColumns([[1.0, 1.0, 1.0, 0.0], [1.0, 3.0, 0.0, 1.0]])
KNOWN_B = np.array([4.0, 6.0])


def test_known_minimum():
    result = solve_lp(KNOWN_C, KNOWN_A, KNOWN_B, basis=[2, 3])
    assert result.objective == pytest.approx(-5.0, abs=1e-9)
    assert result.x[:2] == pytest.approx([3.0, 1.0], abs=1e-9)


def test_pivot_limit_raises_solver_limit_reached():
    # from the slack basis the program of test_known_minimum needs two pivots
    assert solve_lp(KNOWN_C, KNOWN_A, KNOWN_B, basis=[2, 3]).pivots == 2
    # solve_lp's limit, 200 + 50 (m + n), is far off, so cap _iterate at one
    # pivot; solve_lp hands Bland's rule the run length m + n = 6
    lp = simplex._Basis(KNOWN_A, KNOWN_B, np.array([2, 3]))
    with pytest.raises(SolverLimitReached, match="pivot limit"):
        simplex._iterate(lp, KNOWN_C, 1, bland_after=6)


def test_unbounded_program():
    # x0 never appears in a constraint and has negative cost
    with pytest.raises(SolverLimitReached, match="unbounded"):
        solve_lp(np.array([-1.0, 0.0]), DenseColumns([[0.0, 1.0]]), np.array([1.0]), basis=[1])


BEALE_C = np.array([-0.75, 150.0, -0.02, 6.0, 0.0, 0.0, 0.0])
BEALE_A = DenseColumns([
    [0.25, -60.0, -0.04, 9.0, 1.0, 0.0, 0.0],
    [0.5, -90.0, -0.02, 3.0, 0.0, 1.0, 0.0],
    [0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0],
])


def test_degenerate_vertices_terminate():
    # many bases describe the same corner; the solver must not cycle
    result = solve_lp(BEALE_C, BEALE_A, np.array([0.0, 0.0, 1.0]), basis=[4, 5, 6])
    assert result.objective == pytest.approx(-0.05, abs=1e-9)


def test_random_feasible_programs_match_brute_force():
    rng = np.random.default_rng(83)
    for _ in range(60):
        m = int(rng.integers(1, 4))
        n = int(rng.integers(m + 1, 7))
        A = rng.standard_normal((m, n))
        feasible_point = np.zeros(n)
        support = rng.choice(n, size=m, replace=False)
        feasible_point[support] = rng.random(m) + 0.1
        b = A @ feasible_point
        c = rng.random(n)  # nonnegative costs keep the program bounded
        result = solve_lp(c, DenseColumns(A), b, basis=support)
        assert np.allclose(A @ result.x, b, atol=1e-8)
        assert result.x.min() >= -1e-9
        assert result.objective == pytest.approx(brute_force_lp(c, A, b), abs=1e-7)


def test_bland_rule_alone_reaches_the_optimum():
    # bland_after=0 runs Bland's rule from the first pivot, here from Beale's
    # slack basis, whose degenerate corner makes Dantzig's rule cycle when
    # ties go to the smallest index
    lp = simplex._Basis(BEALE_A, np.array([0.0, 0.0, 1.0]), np.array([4, 5, 6]))
    pivots = simplex._iterate(lp, BEALE_C, 100, bland_after=0)
    x = np.zeros(7)
    x[lp.basis] = lp.values
    assert BEALE_C @ x == pytest.approx(-0.05, abs=1e-12)
    assert pivots > 0


def test_duals_and_pivot_counts():
    rng = np.random.default_rng(5)
    for _ in range(40):
        m = int(rng.integers(1, 4))
        n = int(rng.integers(m + 1, 7))
        A = rng.standard_normal((m, n))
        x0 = np.zeros(n)
        support = rng.choice(n, size=m, replace=False)
        x0[support] = rng.random(m) + 0.1
        b = A @ x0
        c = rng.random(n)
        result = solve_lp(c, DenseColumns(A), b, basis=support)
        assert np.min(c - result.duals @ A) >= -1e-9
        assert result.duals @ b == pytest.approx(result.objective, abs=1e-9)
        # random programs are nondegenerate, so the optimal basis is the
        # support of x; started there, the solve makes no pivot
        optimal = np.flatnonzero(result.x > 1e-12)
        assert optimal.size == m
        again = solve_lp(c, DenseColumns(A), b, basis=optimal)
        assert again.pivots == 0
        assert again.objective == pytest.approx(result.objective, abs=1e-12)


def test_singular_refactorization_raises_solver_limit_reached(monkeypatch):
    def singular(matrix):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(simplex.np.linalg, "inv", singular)
    with pytest.raises(SolverLimitReached, match="singular"):
        solve_lp(np.array([1.0, 1.0]), DenseColumns([[1.0, 2.0]]), np.array([1.0]), basis=[0])


def test_unverified_solution_raises_solver_limit_reached(monkeypatch):
    # a final basic solution off A x = b by more than _FEASIBILITY_TOL is refused
    refactor = simplex._Basis.refactor

    def drifted(self):
        refactor(self)
        self.values = self.values + 1e-6

    monkeypatch.setattr(simplex._Basis, "refactor", drifted)
    with pytest.raises(SolverLimitReached, match="misses"):
        solve_lp(np.array([1.0, 1.0]), DenseColumns([[1.0, 2.0]]), np.array([1.0]), basis=[0])


def test_feasible_starting_basis_skips_phase_one():
    # solve_lp has no phase 1: it pivots from the given basis, here the slack
    # basis of test_known_minimum, and its duals certify the optimum
    result = solve_lp(KNOWN_C, KNOWN_A, KNOWN_B, basis=[2, 3])
    assert result.objective == pytest.approx(-5.0, abs=1e-9)
    assert np.min(KNOWN_C - result.duals @ KNOWN_A.matrix) >= -1e-9
    assert result.duals @ KNOWN_B == pytest.approx(-5.0, abs=1e-9)


def test_infeasible_starting_basis_raises_solver_limit_reached():
    # with x and y basic, x + y = 4 and x + 3y = 6 give (3, 1); with b = (4, 16)
    # they give x = -2
    with pytest.raises(SolverLimitReached, match="starting basis"):
        solve_lp(KNOWN_C, KNOWN_A, np.array([4.0, 16.0]), basis=[0, 1])


class MirroredColumns(DenseColumns):
    """A dense column source that names each column's negative, as ``mirror`` asks."""

    def __init__(self, matrix):
        super().__init__(matrix)
        negative = np.all(self.matrix[:, :, None] == -self.matrix[:, None, :], axis=0)
        np.fill_diagonal(negative, False)
        self.mirrors = np.where(negative.any(axis=0), negative.argmax(axis=0), -1)

    def mirror(self, cols):
        return self.mirrors[np.asarray(cols)]


class UnitColumns(MirroredColumns):
    """A mirrored dense column source that also names its signed unit columns, as ``unit`` asks.

    Its refactorizations invert only the block of the other basic columns.
    """

    def __init__(self, matrix):
        super().__init__(matrix)
        nonzero = self.matrix != 0.0
        row = nonzero.argmax(axis=0)
        sign = self.matrix[row, np.arange(self.shape[1])]
        is_unit = (nonzero.sum(axis=0) == 1) & (np.abs(sign) == 1.0)
        self.rows = np.where(is_unit, row, -1)
        self.signs = np.where(is_unit, sign, 0.0)

    def unit(self, cols):
        return self.rows[np.asarray(cols)], self.signs[np.asarray(cols)]


def l1_fit_program(vertices, q, weights):
    """min sum_i w_i |q_i - (V lambda)_i| over the simplex, as the hull program states it.

    Columns are the vertices, each with a 1 in the last (normalization) row,
    then one +unit and one -unit slack per cell, weighted by ``weights``
    (s+ first).  The starting basis is vertex 0 with the slack of each cell
    that makes its residual nonnegative.
    """
    n_cells, n_vertices = vertices.shape
    slack = np.vstack([np.eye(n_cells), np.zeros(n_cells)])
    A = np.hstack([np.vstack([vertices, np.ones(n_vertices)]), slack, -slack])
    c = np.concatenate([np.zeros(n_vertices), weights])
    below = q < vertices[:, 0]
    basis = np.append(n_vertices + np.arange(n_cells) + n_cells * below, 0)
    return c, A, np.append(q, 1.0), basis


def random_l1_fit(rng):
    n_cells = int(rng.integers(2, 9))
    n_vertices = int(rng.integers(2, 9))
    vertices = (rng.random((n_cells, n_vertices)) < 0.5).astype(float)
    return l1_fit_program(vertices, rng.random(n_cells), rng.uniform(0.5, 2.0, 2 * n_cells))


def test_long_step_reaches_the_plain_optimum_with_a_certificate():
    rng = np.random.default_rng(97)
    plain_pivots = long_pivots = 0
    for _ in range(40):
        c, A, b, basis = random_l1_fit(rng)
        plain = solve_lp(c, DenseColumns(A), b, basis=basis.copy())
        result = solve_lp(c, MirroredColumns(A), b, basis=basis.copy())
        assert result.objective == pytest.approx(plain.objective, abs=1e-9)
        assert np.max(np.abs(A @ result.x - b)) <= 1e-9
        assert result.x.min() >= 0.0
        assert np.min(c - result.duals @ A) >= -1e-9
        assert result.duals @ b == pytest.approx(result.objective, abs=1e-9)
        plain_pivots += plain.pivots
        long_pivots += result.pivots
    assert long_pivots < plain_pivots


def test_block_refactorization_reaches_the_whole_basis_optimum():
    # the slacks of an L1 fit are signed units, so its refactorizations
    # invert only the block of basic vertex columns
    rng = np.random.default_rng(101)
    for _ in range(40):
        c, A, b, basis = random_l1_fit(rng)
        whole = solve_lp(c, MirroredColumns(A), b, basis=basis.copy())
        block = solve_lp(c, UnitColumns(A), b, basis=basis.copy())
        assert block.objective == pytest.approx(whole.objective, abs=1e-9)
        assert np.max(np.abs(A @ block.x - b)) <= 1e-9
        assert np.min(c - block.duals @ A) >= -1e-9
        assert block.duals @ b == pytest.approx(block.objective, abs=1e-9)
    # a basis of units alone leaves an empty block
    known = UnitColumns(KNOWN_A.matrix)
    assert list(known.unit([0, 1, 2, 3])[0]) == [-1, -1, 0, 1]
    assert solve_lp(KNOWN_C, known, KNOWN_B, basis=[2, 3]).objective == pytest.approx(-5.0, abs=1e-9)


def test_two_units_on_one_row_raise_solver_limit_reached():
    # e_0 and -e_0 are both basic, so no column covers row 1
    A = UnitColumns([[1.0, -1.0, 1.0], [0.0, 0.0, 1.0]])
    with pytest.raises(SolverLimitReached, match="singular"):
        solve_lp(np.zeros(3), A, np.array([1.0, 1.0]), basis=[0, 1])


def five_cells(q):
    """Vertex 0 is 0 and vertex 1 is 1 on every cell: as vertex 1 enters with
    weight t, the residuals q - t fall through zero at t = q_i, and the slope
    -5 rises by 2 at each."""
    return l1_fit_program(np.array([[0.0, 1.0]] * 5), np.asarray(q), np.ones(10))


def test_long_step_crosses_several_breakpoints_in_one_pivot(monkeypatch):
    c, A, b, basis = five_cells([0.9, 0.8, 0.7, 0.6, 0.5])
    flips = []
    flip = simplex._Basis.flip

    def counted(self, rows, column):
        flips.append(len(rows))
        flip(self, rows, column)

    monkeypatch.setattr(simplex._Basis, "flip", counted)
    plain = solve_lp(c, DenseColumns(A), b, basis=basis.copy())
    assert flips == []
    result = solve_lp(c, MirroredColumns(A), b, basis=basis.copy())
    # the slopes -5, -3, -1 cross the residuals at 0.5 and 0.6, and vertex 1
    # enters at the median 0.7
    assert flips == [2]
    assert result.pivots == 1 < plain.pivots
    assert result.objective == pytest.approx(0.6, abs=1e-12)
    assert plain.objective == pytest.approx(0.6, abs=1e-12)


def test_degenerate_step_walks_past_the_zero_residual():
    # the last cell's residual is 0 at the start, so vertex 1's least ratio is
    # 0.  The plain rule pivots on that row at step 0; the walk crosses it and
    # the residual at 0.6, and vertex 1 enters at the median 0.7
    c, A, b, basis = five_cells([0.9, 0.8, 0.7, 0.6, 0.0])
    lp = simplex._Basis(DenseColumns(A), b, basis.copy())
    row, step, _ = simplex._leaving_row(lp, lp.crossing(c), 1, lp.reduced_costs(c)[1], bland=False)
    assert (row, step) == (4, 0.0)
    lp = simplex._Basis(MirroredColumns(A), b, basis.copy())
    row, step, _ = simplex._leaving_row(lp, lp.crossing(c), 1, lp.reduced_costs(c)[1], bland=True)
    assert (row, step) == (4, 0.0)
    assert np.array_equal(lp.basis, basis)
    row, step, _ = simplex._leaving_row(lp, lp.crossing(c), 1, lp.reduced_costs(c)[1], bland=False)
    assert row == 2 and step == pytest.approx(0.7, abs=1e-12)
    assert np.array_equal(lp.basis[3:5], basis[3:5] + 5)
    plain = solve_lp(c, DenseColumns(A), b, basis=basis.copy())
    result = solve_lp(c, MirroredColumns(A), b, basis=basis.copy())
    assert (result.pivots, plain.pivots) == (1, 3)
    assert result.objective == pytest.approx(1.1, abs=1e-12)
    assert plain.objective == pytest.approx(1.1, abs=1e-12)


def test_without_mirrors_the_walk_picks_the_plain_rows(monkeypatch):
    # every row is a hard stop, so each walk stops at its first row and no
    # pivot crosses one
    def flip(self, rows, column):
        raise AssertionError("a row was crossed")

    monkeypatch.setattr(simplex._Basis, "flip", flip)
    rng = np.random.default_rng(83)
    for _ in range(40):
        c, A, b, basis = random_l1_fit(rng)
        result = solve_lp(c, DenseColumns(A), b, basis=basis.copy())
        assert np.min(c - result.duals @ A) >= -1e-9


def test_ratio_ties_go_to_the_larger_entry_in_the_walk_and_the_plain_rule():
    # vertex 1 enters with entries 1 and 2 on two residuals that reach zero
    # together at t = 0.5; with the larger entry first its gain of 4 cancels
    # the slope -4 and it leaves without a crossing, where the order of the
    # rows would first cross the other residual
    c, A, b, basis = l1_fit_program(np.array([[0.0, 1.0], [0.0, 2.0], [0.0, 1.0]]),
                                    np.array([0.5, 1.0, 0.9]), np.ones(6))
    lp = simplex._Basis(MirroredColumns(A), b, basis.copy())
    row, step, _ = simplex._leaving_row(lp, lp.crossing(c), 1, lp.reduced_costs(c)[1], bland=False)
    assert (row, step) == (1, 0.5)
    assert np.array_equal(lp.basis, basis)
    # with a third entry of 2 the slope is -5: crossing the larger entry's
    # residual leaves -1, and the other tied residual leaves at t = 0.5
    c, A, b, basis = l1_fit_program(np.array([[0.0, 1.0], [0.0, 2.0], [0.0, 2.0]]),
                                    np.array([0.5, 1.0, 1.8]), np.ones(6))
    lp = simplex._Basis(MirroredColumns(A), b, basis.copy())
    row, step, _ = simplex._leaving_row(lp, lp.crossing(c), 1, lp.reduced_costs(c)[1], bland=False)
    assert (row, step) == (0, 0.5)
    assert lp.basis[1] == basis[1] + 3
    assert np.array_equal(np.delete(lp.basis, 1), np.delete(basis, 1))
    # the plain rule counts ratios within _PIVOT_TOL as tied: x = 1 and
    # x = 1 + 5e-13 tie, and the larger entry's row leaves, or under Bland's
    # rule the row of the smaller basic column
    A = np.array([[1.0, 1.0, 0.0], [2.0, 0.0, 1.0]])
    b = np.array([1.0, 2.0 + 1e-12])
    lp = simplex._Basis(DenseColumns(A), b, np.array([1, 2]))
    row, _, _ = simplex._leaving_row(lp, lp.crossing(np.zeros(3)), 0, -1.0, bland=False)
    assert row == 1
    row, _, _ = simplex._leaving_row(lp, lp.crossing(np.zeros(3)), 0, -1.0, bland=True)
    assert row == 0


def test_long_step_that_never_stops_the_slope_meets_the_unbounded_ray():
    # x + s+ - s- = 1 with costs (1, 1, -5): as x grows past 1, s- = x - 1
    # and the cost -4x + 1 falls without bound; the walk crosses s+ and the
    # slope stays negative
    with pytest.raises(SolverLimitReached, match="unbounded"):
        solve_lp(np.array([1.0, 1.0, -5.0]), MirroredColumns([[1.0, -1.0, 1.0]]),
                 np.array([1.0]), basis=[0])
