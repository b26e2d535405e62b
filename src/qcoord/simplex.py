"""Two-phase dense-tableau simplex for small equality-form linear programs.

Solves  minimize c @ x  subject to  A @ x == b,  x >= 0.

Phase 1 starts from a full artificial basis and minimizes the artificial
mass; phase 2 reoptimizes the real objective from the feasible basis.
Bland's smallest-index rule is used for both the entering and the leaving
variable, which rules out cycling at the cost of a few extra pivots.  The
problems this package generates have a few hundred rows and columns at most,
so the dense tableau and the fresh reduced-cost computation per pivot are
well inside budget.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import QcoordError, SolverLimitReached

_PIVOT_TOL = 1e-11

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"


@dataclass(frozen=True)
class SimplexResult:
    status: str
    x: np.ndarray | None
    objective: float | None


def _pivot(tableau: np.ndarray, row: int, col: int, basis: list):
    tableau[row] /= tableau[row, col]
    factors = tableau[:, col].copy()
    factors[row] = 0.0
    tableau -= np.outer(factors, tableau[row])
    basis[row] = col


def _bland_iterate(tableau: np.ndarray, basis: list, costs: np.ndarray,
                   n_columns: int, max_pivots: int) -> str:
    """Pivot until no allowed column has a negative reduced cost."""
    for _ in range(max_pivots):
        reduced = costs[:n_columns] - costs[basis] @ tableau[:, :n_columns]
        candidates = np.nonzero(reduced < -_PIVOT_TOL)[0]
        entering = -1
        for j in candidates:
            if j not in basis:
                entering = int(j)
                break
        if entering < 0:
            return OPTIMAL
        column = tableau[:, entering]
        rows = np.nonzero(column > _PIVOT_TOL)[0]
        if rows.size == 0:
            return UNBOUNDED
        ratios = tableau[rows, -1] / column[rows]
        best = ratios.min()
        tied = rows[ratios <= best + _PIVOT_TOL]
        leaving = int(min(tied, key=lambda r: basis[r]))
        _pivot(tableau, leaving, entering, basis)
    raise SolverLimitReached(
        f"simplex pivot limit of {max_pivots} reached; the problem is badly scaled"
    )


def solve_lp(c, A, b, *, feasibility_tol: float = 1e-9,
             max_pivots: int | None = None) -> SimplexResult:
    """Minimize ``c @ x`` over ``A @ x == b``, ``x >= 0``."""
    A = np.array(A, dtype=float)
    b = np.array(b, dtype=float).reshape(-1)
    c = np.array(c, dtype=float).reshape(-1)
    if A.ndim != 2 or A.shape != (b.size, c.size):
        raise QcoordError(
            f"inconsistent LP shapes: A {A.shape}, b ({b.size},), c ({c.size},)"
        )
    m, n = A.shape
    if max_pivots is None:
        max_pivots = 200 + 50 * (m + n)

    flip = b < 0
    A[flip] *= -1.0
    b[flip] *= -1.0

    tableau = np.hstack([A, np.eye(m), b[:, None]])
    basis = list(range(n, n + m))

    phase1_costs = np.concatenate([np.zeros(n), np.ones(m), [0.0]])
    status = _bland_iterate(tableau, basis, phase1_costs, n + m, max_pivots)
    if status != OPTIMAL:  # pragma: no cover - phase 1 is always bounded below by 0
        raise QcoordError("phase 1 reported unbounded, which cannot happen")
    artificial_mass = float(sum(tableau[i, -1] for i in range(m) if basis[i] >= n))
    if artificial_mass > feasibility_tol:
        return SimplexResult(INFEASIBLE, None, None)

    # Drive zero-level artificials out of the basis; rows that offer no real
    # pivot column are redundant constraints and are dropped.
    keep_rows = []
    for i in range(m):
        if basis[i] < n:
            keep_rows.append(i)
            continue
        row = tableau[i, :n]
        pivots = np.nonzero(np.abs(row) > _PIVOT_TOL)[0]
        if pivots.size:
            _pivot(tableau, i, int(pivots[0]), basis)
            keep_rows.append(i)
    if len(keep_rows) != m:
        tableau = tableau[keep_rows]
        basis = [basis[i] for i in keep_rows]
        m = len(keep_rows)

    tableau = np.hstack([tableau[:, :n], tableau[:, -1:]])
    phase2_costs = np.concatenate([c, [0.0]])
    status = _bland_iterate(tableau, basis, phase2_costs, n, max_pivots)
    if status == UNBOUNDED:
        return SimplexResult(UNBOUNDED, None, None)

    x = np.zeros(n)
    for i, var in enumerate(basis):
        x[var] = tableau[i, -1]
    x = np.clip(x, 0.0, None)
    return SimplexResult(OPTIMAL, x, float(c @ x))
