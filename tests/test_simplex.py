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
    with pytest.raises(SolverLimitReached, match="pivot limit"):
        solve_lp(KNOWN_C, KNOWN_A, KNOWN_B, basis=[2, 3], max_pivots=1)


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
