"""Revised simplex for equality-form linear programs, from a feasible basis.

Solves  minimize c @ x  subject to  A @ x == b,  x >= 0,  starting from a
given feasible basis (one column index per row).

The solver keeps an explicit basis inverse B^-1 and the basic values x_B;
a pivot updates both with one rank-one step, and pricing computes every
reduced cost c - (c_B B^-1) A in one read-only pass.

``A`` is a column source, which lets a program with many structured
columns be solved without storing them.  A column source has ``shape``,
``column(col)`` giving the rows and values (an array or one number) of one
column's nonzero entries (the entering column), ``columns(cols)`` giving
the listed columns as a dense block (refactorization), ``prices(duals)``
giving ``duals @ A`` (pricing), and ``mirror(cols)`` giving, for each
listed column, the index of the column equal to its negative, or -1 where
there is none (the long step below).

The entering column has the most negative reduced cost (Dantzig's rule);
ratio-test ties (ratios within _PIVOT_TOL of the least) go to the largest
pivot entry.  Once a run of pivots that leave the objective unchanged is as
long as the program has columns, Bland's smallest-index rule picks both
variables until the objective moves again, which rules out cycling.  The
run is that long because hull programs stall for hundreds of degenerate
pivots without cycling, where Bland's rule needs many times more pivots
than Dantzig's to get out.

Where columns have mirrors, a Dantzig pivot takes the long step of
Barrodale and Roberts' L1 fit: a basic variable with a mirror can pass
through zero, becoming its mirror, instead of stopping the step.  The
breakpoints x_r / alpha_r of the rows with alpha = B^-1 a_j above
_RATIO_TOL are walked in order of ratio, the larger alpha_r first on ties
(the ratios within _PIVOT_TOL of the least all tie, as in the plain rule),
from the slope d_j.  Crossing a row whose basic column k has a mirror m
adds (c_k + c_m) alpha_r to the slope; a row whose basic column has no
mirror is a hard stop.  The step stops at the first hard row or at the
first row whose crossing would leave the slope at or above -_PIVOT_TOL.
Each crossed row swaps its basic column for the mirror, negating its row
of B^-1, of x_B and of alpha, and the usual pivot is made at the stopping
row.  The first breakpoint is the plain rule's row, so a source whose
``mirror`` finds no negatives pivots by the plain rule.  Two cases keep the
plain ratio test: Bland's rule, whose argument against cycling rests on
it, and a degenerate step (a least ratio at or below _PIVOT_TOL), so the
degenerate pivots that lead to Bland's rule are the plain rule's.

Three safeguards keep the rank-one updates honest: B^-1 and x_B are
recomputed from A[:, basis] every _REFACTOR_EVERY pivots and before a
solution is read; the ratio test admits only entries above _RATIO_TOL; and
the final solution must satisfy A x = b, x >= 0 within _FEASIBILITY_TOL.
A singular basis, an infeasible starting basis, an unbounded ray or a
failed check raises ``SolverLimitReached`` rather than returning a wrong
answer.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import QcoordError, SolverLimitReached

_PIVOT_TOL = 1e-11      # reduced-cost sign, ratio ties and zero steps
_RATIO_TOL = 1e-9       # smallest column entry admitted to the ratio test
_FEASIBILITY_TOL = 1e-9  # largest miss of A x = b, x >= 0 accepted in a basis
_REFACTOR_EVERY = 50


@dataclass(frozen=True)
class SimplexResult:
    """Outcome of ``solve_lp``: an optimal basic solution.

    ``duals`` is c_B B^-1 of the optimal basis, so ``c - duals @ A`` is
    nonnegative and ``duals @ b`` equals the objective; ``pivots`` counts
    the pivots made from the starting basis.
    """

    x: np.ndarray
    objective: float
    duals: np.ndarray
    pivots: int


class _Basis:
    """A basis of ``A x = b``, its explicit inverse and its basic values."""

    def __init__(self, A, b: np.ndarray, basis: np.ndarray):
        self.A = A
        self.b = b
        self.basis = basis
        self.mirrors = A.mirror(np.arange(A.shape[1]))
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

    def flip(self, rows: np.ndarray, column: np.ndarray):
        """Swap the basic columns at ``rows`` for their mirrors.

        Negating a basic column negates its row of B^-1 and of x_B, and of
        ``column`` = B^-1 A[:, col] for the entering column; negation is exact.
        """
        self.basis[rows] = self.mirrors[self.basis[rows]]
        self.inverse[rows] *= -1.0
        self.values[rows] *= -1.0
        column[rows] *= -1.0

    def crossing(self, costs: np.ndarray):
        """Per column k, the slope gained per unit of alpha_r by crossing a row where k is basic.

        That is c_k + c_mirror(k), or inf (a hard stop) where k has no
        mirror.
        """
        return np.where(self.mirrors >= 0, costs + costs[self.mirrors], np.inf)

    def entering(self, col: int) -> np.ndarray:
        """B^-1 A[:, col]."""
        rows, values = self.A.column(col)
        dense = np.zeros(self.b.size)
        dense[rows] = values
        return self.inverse @ dense

    def reduced_costs(self, costs: np.ndarray) -> np.ndarray:
        """Reduced costs of every column, zero on basic columns."""
        reduced = costs - self.A.prices(costs[self.basis] @ self.inverse)
        reduced[self.basis] = 0.0
        return reduced


def _iterate(lp: _Basis, costs: np.ndarray, max_pivots: int, bland_after: int) -> int:
    """Pivot until no reduced cost is negative; returns the number of pivots made.

    Bland's rule takes over after ``bland_after`` consecutive degenerate
    pivots.
    """
    crossing = lp.crossing(costs)
    degenerate = 0
    for pivots in range(max_pivots + 1):
        reduced = lp.reduced_costs(costs)
        bland = degenerate >= bland_after
        if bland:
            candidates = np.nonzero(reduced < -_PIVOT_TOL)[0]
            if candidates.size == 0:
                return pivots
            col = int(candidates[0])
        else:
            col = int(reduced.argmin())
            if reduced[col] >= -_PIVOT_TOL:
                return pivots
        if pivots == max_pivots:
            break
        row, step, column = _leaving_row(lp, crossing, col, reduced[col], bland)
        degenerate = degenerate + 1 if step <= _PIVOT_TOL else 0
        lp.pivot(row, col, column)
    raise SolverLimitReached(
        f"simplex pivot limit of {max_pivots} reached; the problem is badly scaled"
    )


def _leaving_row(lp: _Basis, crossing, col: int, slope: float, bland: bool):
    """The ratio test for entering column ``col`` with reduced cost ``slope``.

    ``crossing`` is ``lp.crossing(costs)``.  Returns the leaving row, the
    plain minimum ratio and B^-1 A[:, col].  A long step swaps the rows it
    crosses for their mirrors in ``lp`` and negates their entries of the
    returned column.
    """
    column = lp.entering(col)
    rows = np.nonzero(column > _RATIO_TOL)[0]
    if rows.size == 0:
        raise SolverLimitReached(f"simplex column {col} is an unbounded ray")
    ratios = np.maximum(lp.values[rows], 0.0) / column[rows]
    step = ratios.min()
    tied = rows[ratios <= step + _PIVOT_TOL]
    if bland:
        return int(tied[lp.basis[tied].argmin()]), step, column
    row = int(tied[column[tied].argmax()])
    if step <= _PIVOT_TOL or slope + crossing[lp.basis[row]] * column[row] >= -_PIVOT_TOL:
        return row, step, column
    # the walk's first breakpoint is ``row``: ratios within _PIVOT_TOL of the
    # least tie, and ties go to the larger entry.  Where no row stops the
    # slope, argmax gives 0: the plain pivot, after which the next ratio test
    # meets the unbounded ray.
    order = np.lexsort((-column[rows], np.maximum(ratios, step + _PIVOT_TOL)))
    rows = rows[order]
    reached = slope + np.cumsum(crossing[lp.basis[rows]] * column[rows]) >= -_PIVOT_TOL
    stop = int(reached.argmax())
    lp.flip(rows[:stop], column)
    return int(rows[stop]), step, column


def solve_lp(c, A, b, *, basis, max_pivots: int | None = None) -> SimplexResult:
    """Minimize ``c @ x`` over ``A @ x == b``, ``x >= 0``, from a feasible basis.

    ``A`` is a column source and ``basis`` names one column per row.  At most
    ``max_pivots`` pivots are made.  A starting basis off ``x >= 0``,
    reaching the pivot limit, an unbounded ray, a singular basis, or a final
    basic solution off ``A x = b, x >= 0`` raises ``SolverLimitReached``;
    each "off" means by more than _FEASIBILITY_TOL.
    """
    b = np.array(b, dtype=float).reshape(-1)
    c = np.array(c, dtype=float).reshape(-1)
    if len(A.shape) != 2 or A.shape != (b.size, c.size):
        raise QcoordError(
            f"inconsistent LP shapes: A {A.shape}, b ({b.size},), c ({c.size},)"
        )
    m, n = A.shape
    if max_pivots is None:
        max_pivots = 200 + 50 * (m + n)

    lp = _Basis(A, b, np.array(basis, dtype=np.int64))
    low = float(lp.values.min(initial=0.0))
    if low < -_FEASIBILITY_TOL:
        raise SolverLimitReached(
            f"the starting basis is infeasible: a basic value is {low:.3e}")
    pivots = _iterate(lp, c, max_pivots, n + m)

    lp.refactor()
    miss = max(float(np.max(np.abs(lp.A.columns(lp.basis) @ lp.values - b), initial=0.0)),
               -float(lp.values.min(initial=0.0)))
    if miss > _FEASIBILITY_TOL:
        raise SolverLimitReached(f"simplex solution misses A x = b, x >= 0 by {miss:.3e}")
    x = np.zeros(n)
    x[lp.basis] = np.clip(lp.values, 0.0, None)
    return SimplexResult(x, float(c @ x), c[lp.basis] @ lp.inverse, pivots)
