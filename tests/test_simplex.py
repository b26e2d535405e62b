import itertools
import math

import numpy as np
import pytest

from qcoord import SolverLimitReached, simplex
from qcoord.simplex import INFEASIBLE, OPTIMAL, UNBOUNDED, solve_lp


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


def test_known_minimum():
    # min -x - 2y with x + y + s = 4, x + 3y + t = 6 -> optimum at (3, 1)
    c = np.array([-1.0, -2.0, 0.0, 0.0])
    A = np.array([[1.0, 1.0, 1.0, 0.0], [1.0, 3.0, 0.0, 1.0]])
    b = np.array([4.0, 6.0])
    result = solve_lp(c, A, b)
    assert result.status == OPTIMAL
    assert result.objective == pytest.approx(-5.0, abs=1e-9)
    assert result.x[:2] == pytest.approx([3.0, 1.0], abs=1e-9)


def test_pivot_limit_raises_solver_limit_reached():
    # the program of test_known_minimum needs two phase-1 pivots alone
    c = np.array([-1.0, -2.0, 0.0, 0.0])
    A = np.array([[1.0, 1.0, 1.0, 0.0], [1.0, 3.0, 0.0, 1.0]])
    b = np.array([4.0, 6.0])
    with pytest.raises(SolverLimitReached):
        solve_lp(c, A, b, max_pivots=1)


def test_simplex_membership_weights():
    # express (0.25, 0.75) as a convex combination of (0, 1) and (1, 0)
    c = np.zeros(2)
    A = np.array([[0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
    b = np.array([0.25, 0.75, 1.0])
    result = solve_lp(c, A, b)
    assert result.status == OPTIMAL
    assert result.x == pytest.approx([0.75, 0.25], abs=1e-9)


def test_infeasible_program():
    A = np.array([[1.0, 1.0], [1.0, 1.0]])
    b = np.array([1.0, 2.0])
    result = solve_lp(np.zeros(2), A, b)
    assert result.status == INFEASIBLE


def test_unbounded_program():
    # x0 never appears in a constraint and has negative cost
    A = np.array([[0.0, 1.0]])
    b = np.array([1.0])
    result = solve_lp(np.array([-1.0, 0.0]), A, b)
    assert result.status == UNBOUNDED


def test_negative_rhs_rows_are_normalized():
    c = np.array([1.0, 1.0])
    A = np.array([[-1.0, -1.0]])
    b = np.array([-2.0])
    result = solve_lp(c, A, b)
    assert result.status == OPTIMAL
    assert result.objective == pytest.approx(2.0, abs=1e-9)


def test_redundant_rows_are_dropped():
    A = np.array([[1.0, 1.0], [2.0, 2.0]])
    b = np.array([1.0, 2.0])
    result = solve_lp(np.array([1.0, 0.0]), A, b)
    assert result.status == OPTIMAL
    assert result.objective == pytest.approx(0.0, abs=1e-9)


BEALE_C = np.array([-0.75, 150.0, -0.02, 6.0, 0.0, 0.0, 0.0])
BEALE_A = np.array([
    [0.25, -60.0, -0.04, 9.0, 1.0, 0.0, 0.0],
    [0.5, -90.0, -0.02, 3.0, 0.0, 1.0, 0.0],
    [0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0],
])


def test_degenerate_vertices_terminate():
    # many bases describe the same corner; the solver must not cycle
    result = solve_lp(BEALE_C, BEALE_A, np.array([0.0, 0.0, 1.0]))
    assert result.status == OPTIMAL
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
        result = solve_lp(c, A, b)
        assert result.status == OPTIMAL
        assert np.allclose(A @ result.x, b, atol=1e-8)
        assert result.x.min() >= -1e-9
        assert result.objective == pytest.approx(brute_force_lp(c, A, b), abs=1e-7)


def test_bland_rule_alone_reaches_the_optimum():
    # bland_after=0 runs Bland's rule from the first pivot, here from Beale's
    # slack basis, whose degenerate corner makes Dantzig's rule cycle when
    # ties go to the smallest index
    lp = simplex._Basis(np.hstack([BEALE_A, np.eye(3)]), np.array([0.0, 0.0, 1.0]),
                        np.array([4, 5, 6]))
    costs = np.concatenate([BEALE_C, np.zeros(3)])
    status, pivots = simplex._iterate(lp, costs, 7, 100, bland_after=0)
    assert status == OPTIMAL
    x = np.zeros(10)
    x[lp.basis] = lp.values
    assert BEALE_C @ x[:7] == pytest.approx(-0.05, abs=1e-12)
    assert pivots > 0


def test_duals_and_pivot_counts():
    rng = np.random.default_rng(5)
    for _ in range(40):
        m = int(rng.integers(1, 4))
        n = int(rng.integers(m + 1, 7))
        A = rng.standard_normal((m, n))
        x0 = np.zeros(n)
        x0[rng.choice(n, size=m, replace=False)] = rng.random(m) + 0.1
        b = A @ x0   # mixed signs exercise the row flips
        c = rng.random(n)
        result = solve_lp(c, A, b)
        assert result.status == OPTIMAL
        assert np.min(c - result.duals @ A) >= -1e-9
        assert result.duals @ b == pytest.approx(result.objective, abs=1e-9)
        phase1, phase2 = result.pivots
        assert phase1 >= 1 and phase2 >= 0


def test_singular_refactorization_raises_solver_limit_reached(monkeypatch):
    def singular(matrix):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(simplex.np.linalg, "inv", singular)
    with pytest.raises(SolverLimitReached, match="singular"):
        solve_lp(np.array([1.0, 1.0]), np.array([[1.0, 2.0]]), np.array([1.0]))


def test_unverified_solution_raises_solver_limit_reached(monkeypatch):
    # a final basic solution off A x = b by more than feasibility_tol is refused
    refactor = simplex._Basis.refactor

    def drifted(self):
        refactor(self)
        self.values = self.values + 1e-6

    monkeypatch.setattr(simplex._Basis, "refactor", drifted)
    with pytest.raises(SolverLimitReached, match="misses"):
        solve_lp(np.array([1.0, 1.0]), np.array([[1.0, 2.0]]), np.array([1.0]))


def test_feasible_starting_basis_skips_phase_one():
    # the slack basis of test_known_minimum is feasible: x = 0, slacks = b
    c = np.array([-1.0, -2.0, 0.0, 0.0])
    A = np.array([[1.0, 1.0, 1.0, 0.0], [1.0, 3.0, 0.0, 1.0]])
    b = np.array([4.0, 6.0])
    result = solve_lp(c, A, b, basis=[2, 3])
    assert result.status == OPTIMAL
    assert result.objective == pytest.approx(-5.0, abs=1e-9)
    assert result.pivots[0] == 0 and result.pivots[1] > 0
    assert np.min(c - result.duals @ A) >= -1e-9


def test_infeasible_starting_basis_raises_solver_limit_reached():
    # with x and y basic, x + y = 4 and x + 3y = 6 give (3, 1); with b = (4, 16)
    # they give x = -2
    c = np.array([-1.0, -2.0, 0.0, 0.0])
    A = np.array([[1.0, 1.0, 1.0, 0.0], [1.0, 3.0, 0.0, 1.0]])
    with pytest.raises(SolverLimitReached, match="starting basis"):
        solve_lp(c, A, np.array([4.0, 16.0]), basis=[0, 1])
