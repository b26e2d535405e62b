"""Revised simplex for equality-form linear programs.

Solves  minimize c @ x  subject to  A @ x == b,  x >= 0.

The solver keeps an explicit basis inverse B^-1 and the basic values x_B;
a pivot updates both with one rank-one step, and pricing computes every
reduced cost c - (c_B B^-1) A in one read-only pass.

``A`` is either a dense matrix or a column source, which lets a program
with many structured columns be solved without storing them.  A column
source has ``shape``, ``column(col)`` giving the rows and values (an array
or one number) of one column's nonzero entries (the entering column), ``columns(cols)`` giving
the listed columns as a dense block (refactorization), and
``prices(duals)`` giving ``duals @ A`` (pricing).

Given a feasible starting basis, the solver runs phase 2 from it directly.
Otherwise it runs two phases on a dense matrix: phase 1 minimizes the mass
of a full artificial basis (artificials never re-enter); zero-level
artificials are then driven out through the nonbasic real column with the
largest entry in their row, and those on redundant rows stay basic at zero.

The entering column has the most negative reduced cost (Dantzig's rule);
ratio-test ties go to the largest pivot entry.  Once a run of pivots that
leave the objective unchanged is as long as the program has columns,
Bland's smallest-index rule picks both variables until the objective moves
again, which rules out cycling.  The run is that long because hull
programs stall for hundreds of degenerate pivots without cycling, where
Bland's rule needs many times more pivots than Dantzig's to get out.

Three safeguards keep the rank-one updates honest: B^-1 and x_B are
recomputed from A[:, basis] every _REFACTOR_EVERY pivots and before a
solution is read; the ratio test admits only entries above _RATIO_TOL; and
the final solution must satisfy A x = b, x >= 0 within ``feasibility_tol``.
A singular basis, an infeasible starting basis or a failed check raises
``SolverLimitReached`` rather than returning a wrong answer.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import QcoordError, SolverLimitReached

_PIVOT_TOL = 1e-11      # reduced-cost sign, ratio ties and zero steps
_RATIO_TOL = 1e-9       # smallest column entry admitted to the ratio test
_REFACTOR_EVERY = 50

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"


@dataclass(frozen=True)
class SimplexResult:
    """Outcome of ``solve_lp``.

    ``duals`` is c_B B^-1 of the optimal basis in the caller's row signs, so
    ``c - duals @ A`` is nonnegative and ``duals @ b`` equals the objective;
    ``pivots`` counts (phase 1 including the artificial drive-out, phase 2),
    with phase 1 at zero when the solve started from a feasible basis.
    """

    status: str
    x: np.ndarray | None
    objective: float | None
    duals: np.ndarray | None = None
    pivots: tuple = (0, 0)


class _DenseColumns:
    """The column source of an explicit matrix."""

    def __init__(self, matrix: np.ndarray):
        self.matrix = matrix
        self.shape = matrix.shape

    def column(self, col: int):
        return slice(None), self.matrix[:, col]

    def columns(self, cols) -> np.ndarray:
        return self.matrix[:, cols]

    def prices(self, duals: np.ndarray) -> np.ndarray:
        return duals @ self.matrix


class _Basis:
    """A basis of ``A x = b``, its explicit inverse and its basic values."""

    def __init__(self, A, b: np.ndarray, basis: np.ndarray):
        self.A = A if hasattr(A, "prices") else _DenseColumns(np.asarray(A, dtype=float))
        self.b = b
        self.basis = basis
        self.refactor()

    def refactor(self):
        try:
            self.inverse = np.linalg.inv(self.A.columns(self.basis))
        except np.linalg.LinAlgError:
            raise SolverLimitReached("simplex basis became singular") from None
        self.values = self.inverse @ self.b
        self.since_refactor = 0

    def pivot(self, row: int, col: int, column: np.ndarray):
        """Bring ``col`` into the basis at ``row``; ``column`` is B^-1 A[:, col]."""
        pivot_row = self.inverse[row] / column[row]
        step = self.values[row] / column[row]
        self.inverse -= column[:, None] * pivot_row
        self.inverse[row] = pivot_row
        self.values -= step * column
        self.values[row] = step
        self.basis[row] = col
        self.since_refactor += 1
        if self.since_refactor >= _REFACTOR_EVERY:
            self.refactor()

    def entering(self, col: int) -> np.ndarray:
        """B^-1 A[:, col]."""
        rows, values = self.A.column(col)
        dense = np.zeros(self.b.size)
        dense[rows] = values
        return self.inverse @ dense

    def reduced_costs(self, costs: np.ndarray, n: int) -> np.ndarray:
        """Reduced costs of the columns below ``n``, zero on basic columns."""
        reduced = costs[:n] - self.A.prices(costs[self.basis] @ self.inverse)[:n]
        reduced[self.basis[self.basis < n]] = 0.0
        return reduced


def _iterate(lp: _Basis, costs: np.ndarray, n: int, max_pivots: int, bland_after: int):
    """Pivot on columns below ``n`` until no reduced cost is negative.

    Bland's rule takes over after ``bland_after`` consecutive degenerate
    pivots.  Returns the status and the number of pivots made.
    """
    degenerate = 0
    for pivots in range(max_pivots + 1):
        reduced = lp.reduced_costs(costs, n)
        bland = degenerate >= bland_after
        if bland:
            candidates = np.nonzero(reduced < -_PIVOT_TOL)[0]
            if candidates.size == 0:
                return OPTIMAL, pivots
            col = int(candidates[0])
        else:
            col = int(reduced.argmin())
            if reduced[col] >= -_PIVOT_TOL:
                return OPTIMAL, pivots
        if pivots == max_pivots:
            break
        column = lp.entering(col)
        rows = np.nonzero(column > _RATIO_TOL)[0]
        if rows.size == 0:
            return UNBOUNDED, pivots
        ratios = np.maximum(lp.values[rows], 0.0) / column[rows]
        step = ratios.min()
        tied = rows[ratios <= step + _PIVOT_TOL]
        if bland:
            row = int(tied[lp.basis[tied].argmin()])
        else:
            row = int(tied[column[tied].argmax()])
        degenerate = degenerate + 1 if step <= _PIVOT_TOL else 0
        lp.pivot(row, col, column)
    raise SolverLimitReached(
        f"simplex pivot limit of {max_pivots} reached; the problem is badly scaled"
    )


def _drive_out_artificials(lp: _Basis, n: int) -> int:
    """Pivot zero-level artificials out of the basis where a real column allows it."""
    pivots = 0
    for row in np.nonzero(lp.basis >= n)[0]:
        entries = lp.A.prices(lp.inverse[row])[:n]
        entries[lp.basis[lp.basis < n]] = 0.0
        col = int(np.abs(entries).argmax())
        if abs(entries[col]) > _RATIO_TOL:
            lp.pivot(int(row), col, lp.entering(col))
            pivots += 1
    return pivots


def solve_lp(c, A, b, *, feasibility_tol: float = 1e-9,
             max_pivots: int | None = None, basis=None) -> SimplexResult:
    """Minimize ``c @ x`` over ``A @ x == b``, ``x >= 0``.

    ``basis`` optionally names a feasible starting basis, one column index
    per row; the solve then skips phase 1, and ``A`` may be a column source
    instead of a matrix.  A starting basis whose values leave ``x >= 0`` by
    more than ``feasibility_tol`` raises ``SolverLimitReached``.

    Each phase may make at most ``max_pivots`` pivots; reaching the limit, a
    singular basis, or a final basic solution off ``A x = b, x >= 0`` by more
    than ``feasibility_tol`` raises ``SolverLimitReached``.
    """
    if not hasattr(A, "prices"):
        A = np.asarray(A, dtype=float)
    b = np.array(b, dtype=float).reshape(-1)
    c = np.array(c, dtype=float).reshape(-1)
    if len(A.shape) != 2 or A.shape != (b.size, c.size):
        raise QcoordError(
            f"inconsistent LP shapes: A {A.shape}, b ({b.size},), c ({c.size},)"
        )
    m, n = A.shape
    if max_pivots is None:
        max_pivots = 200 + 50 * (m + n)

    if basis is not None:
        lp = _Basis(A, b, np.array(basis, dtype=np.int64))
        low = float(lp.values.min(initial=0.0))
        if low < -feasibility_tol:
            raise SolverLimitReached(
                f"the starting basis is infeasible: a basic value is {low:.3e}")
        flip = np.zeros(m, dtype=bool)
        costs, phase1 = c, 0
    else:
        if not isinstance(A, np.ndarray):
            raise QcoordError("a two-phase solve needs an explicit constraint matrix")
        flip = b < 0
        A = np.hstack([A, np.eye(m)])       # columns n.. are the artificials
        A[flip, :n] *= -1.0
        b[flip] *= -1.0
        lp = _Basis(A, b, np.arange(n, n + m))

        phase1_costs = np.concatenate([np.zeros(n), np.ones(m)])
        status, phase1 = _iterate(lp, phase1_costs, n, max_pivots, n + m)
        if status != OPTIMAL:  # pragma: no cover - phase 1 is always bounded below by 0
            raise QcoordError("phase 1 reported unbounded, which cannot happen")
        lp.refactor()
        if float(lp.values[lp.basis >= n].sum()) > feasibility_tol:
            return SimplexResult(INFEASIBLE, None, None, pivots=(phase1, 0))
        phase1 += _drive_out_artificials(lp, n)
        costs = np.concatenate([c, np.zeros(m)])

    status, phase2 = _iterate(lp, costs, n, max_pivots, n + m)
    if status == UNBOUNDED:
        return SimplexResult(UNBOUNDED, None, None, pivots=(phase1, phase2))

    lp.refactor()
    real = lp.basis < n
    miss = max(float(np.max(np.abs(lp.A.columns(lp.basis[real]) @ lp.values[real] - b),
                            initial=0.0)),
               -float(lp.values.min(initial=0.0)))
    if miss > feasibility_tol:
        raise SolverLimitReached(f"simplex solution misses A x = b, x >= 0 by {miss:.3e}")
    duals = costs[lp.basis] @ lp.inverse
    duals[flip] *= -1.0
    x = np.zeros(n)
    x[lp.basis[real]] = np.clip(lp.values[real], 0.0, None)
    return SimplexResult(OPTIMAL, x, float(c @ x), duals, (phase1, phase2))
