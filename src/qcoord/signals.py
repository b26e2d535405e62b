"""Joint signal distributions and their classification.

A joint signal distribution holds the full mass function p(s, t, phi, psi)
for the two players' measurement outcomes (s, t) together with their private
states (phi, psi).  Three checks apply:

* disjointness: s tells player A nothing extra about psi and t tells
  player B nothing extra about phi;
* state consistency: the (phi, psi) marginal equals the product of the
  state priors;
* classical generation: the conditionals p(s, t | phi, psi) lie in the
  convex hull of deterministic local response pairs, decided by an exact
  L1-residual linear program over the hull vertices.

A hidden variable of arbitrary cardinality adds nothing beyond that hull for
finite alphabets: conditioned on any x, each player's response is a local
stochastic map, every local stochastic map is a mixture of deterministic
ones, and the hull is convex.  So the vertex LP decides exactly the
x-quantified definition.

A distribution is Signalling when disjointness fails, ClassicallyGenerated
when disjoint and inside the hull, and Entangled when disjoint but outside.
Theorem 2's product-form transform needs no LP: the paper's quantile model
generates it, and the model's L1 residual is the verdict's evidence.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from . import tolerances as tol
from .errors import (
    AlphabetCapExceeded,
    DimensionMismatch,
    NotDisjoint,
    NotStateConsistent,
    PayoffDependsOnPsi,
    ShapeMismatch,
    SolverLimitReached,
    ValidationError,
)
from .games import (
    Game,
    _best_deterministic_pair,
    _checked_probabilities,
    _einsum,
    _frozen,
    _real_array,
    _response_table,
    _unchecked,
    _validate_labels,
    _validate_prior,
)
from .quantum import DensityMatrix, MeasurementFamily, _outcome_tables
from .simplex import solve_lp


@dataclass(frozen=True)
class JointSignalDistribution:
    """Full joint mass p[s, t, phi, psi] with labeled axes."""

    s_labels: tuple
    t_labels: tuple
    phi_labels: tuple
    psi_labels: tuple
    table: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "s_labels", _validate_labels(self.s_labels, "s_labels"))
        object.__setattr__(self, "t_labels", _validate_labels(self.t_labels, "t_labels"))
        object.__setattr__(self, "phi_labels", _validate_labels(self.phi_labels, "phi_labels"))
        object.__setattr__(self, "psi_labels", _validate_labels(self.psi_labels, "psi_labels"))
        p = _real_array(self.table, "table")
        expected = (len(self.s_labels), len(self.t_labels),
                    len(self.phi_labels), len(self.psi_labels))
        if p.shape != expected:
            raise ValidationError(f"table: expected shape {expected}, got {p.shape}")
        p, _ = _checked_probabilities(p, None, "table")
        object.__setattr__(self, "table", _frozen(p, float))

    @property
    def shape(self) -> tuple:
        return self.table.shape

    def state_marginal(self) -> np.ndarray:
        """p(phi, psi)"""
        return self.table.sum(axis=(0, 1))


def _derived(s_labels, t_labels, phi_labels, psi_labels, table) -> JointSignalDistribution:
    """A table of sums and products of clamped entries, stored unchecked: the clamp would change no bit."""
    return _unchecked(JointSignalDistribution, s_labels=s_labels, t_labels=t_labels,
                      phi_labels=phi_labels, psi_labels=psi_labels, table=_frozen(table, float))


class Verdict(str, Enum):
    SIGNALLING = "Signalling"
    CLASSICALLY_GENERATED = "ClassicallyGenerated"
    ENTANGLED = "Entangled"


@dataclass(frozen=True)
class CheckResult:
    passed: bool
    max_violation: float


@dataclass(frozen=True)
class LocalityResult:
    """Outcome of the hull-membership program, or of Theorem 2's quantile model.

    ``weights`` carries the mixture over deterministic response pairs when
    feasible (each entry is (response_a, response_b, weight) with responses
    given as outcome labels in state order); ``residual`` is the minimized
    L1 reconstruction error, which exceeds the tolerance exactly when the
    conditionals lie outside the hull.

    When infeasible, ``certificate`` is a Bell-type functional y[s, t, phi,
    psi] read off the program's duals (zero on cells below the mass floor):
    every deterministic response pair scores at most y.q - ``certificate_gap``
    on it, where q are the conditionals.  The gap is checked by enumerating
    the pairs, and by strong duality it is at least the residual.
    ``pivots`` counts the simplex pivots made from the best-fitting
    deterministic pair's starting basis.
    """

    feasible: bool
    residual: float
    tolerance: float
    weights: tuple | None
    certificate: np.ndarray | None = field(default=None, compare=False)
    certificate_gap: float | None = None
    pivots: int = 0


@dataclass(frozen=True)
class ClassificationResult:
    disjoint: CheckResult
    state_consistent: CheckResult
    locality: LocalityResult | None
    verdict: Verdict


def distribution_from_quantum(
    rho: DensityMatrix,
    family_a: MeasurementFamily,
    family_b: MeasurementFamily,
    prior_a,
    prior_b,
) -> JointSignalDistribution:
    """Joint signal distribution of measuring a shared state per private state.

    p(s, t, phi, psi) = prior_a(phi) * prior_b(psi) * tr(rho M_{s|phi} ox N_{t|psi}).
    State consistency holds by construction.
    """
    if rho.dim != family_a.dim * family_b.dim:
        raise DimensionMismatch(
            f"state dim {rho.dim} is not {family_a.dim} * {family_b.dim}"
        )
    pa = _validate_prior(prior_a, len(family_a.labels), "prior_a")
    pb = _validate_prior(prior_b, len(family_b.labels), "prior_b")
    n_s, n_t = family_a.n_outcomes, family_b.n_outcomes
    tables = _outcome_tables(rho, [family_a[f] for f in family_a.labels],
                             [family_b[w] for w in family_b.labels])
    return _derived(tuple(str(i) for i in range(n_s)), tuple(str(i) for i in range(n_t)),
                    _validate_labels(family_a.labels, "phi_labels"),
                    _validate_labels(family_b.labels, "psi_labels"),
                    pa[:, None] * pb * tables.transpose(2, 3, 0, 1))


def _leak(table: np.ndarray, mass_floor: float) -> float:
    """Largest |Pr{psi | phi, s} - Pr{psi | phi}| of table[s, t, phi, psi].

    Only conditioning events heavier than ``mass_floor`` count.
    """
    phi_mass = table.sum(axis=(0, 1, 3))            # p(phi)
    phi_s = table.sum(axis=(1, 3))                  # p(s, phi)
    phi_psi = table.sum(axis=(0, 1))                # p(phi, psi)
    phi_s_psi = table.sum(axis=1)                   # p(s, phi, psi)
    heavy_phi = phi_mass > mass_floor
    heavy = (phi_s > mass_floor) & heavy_phi        # [s, phi]
    # light events divide by 1 instead, so no 0/0 is evaluated; they are masked out
    base = phi_psi / np.where(heavy_phi, phi_mass, 1.0)[:, None]
    conditioned = phi_s_psi / np.where(heavy, phi_s, 1.0)[:, :, None]
    return float(np.abs(conditioned - base)[heavy].max(initial=0.0))


def check_disjoint(p: JointSignalDistribution, *,
                   tolerance: float = tol.DISJOINT_TOL) -> CheckResult:
    """Do the signals leak information about the other player's state?

    Compares Pr{psi | phi, s} with Pr{psi | phi} and Pr{phi | psi, t} with
    Pr{phi | psi} on every conditioning event heavier than MASS_FLOOR; the
    second comparison is the first on the table with the players swapped.
    """
    worst = max(_leak(p.table, tol.MASS_FLOOR),
                _leak(p.table.transpose(1, 0, 3, 2), tol.MASS_FLOOR))
    return CheckResult(passed=worst <= tolerance, max_violation=worst)


def check_state_consistent(
    p: JointSignalDistribution,
    prior_a,
    prior_b,
    *,
    tolerance: float = tol.TOL_PROB,
) -> CheckResult:
    """Does the (phi, psi) marginal equal the product of the priors?"""
    pa = _validate_prior(prior_a, len(p.phi_labels), "prior_a")
    pb = _validate_prior(prior_b, len(p.psi_labels), "prior_b")
    return _state_consistency(p, pa, pb, tolerance)


def _state_consistency(p: JointSignalDistribution, pa, pb, tolerance: float) -> CheckResult:
    """``check_state_consistent`` on priors already validated for ``p``'s states."""
    deviation = float(np.abs(p.state_marginal() - pa[:, None] * pb).max())
    return CheckResult(passed=deviation <= tolerance, max_violation=deviation)


def _conditionals(p: JointSignalDistribution):
    """q(s, t | phi, psi) plus the mask of (phi, psi) cells heavier than MASS_FLOOR."""
    marg = p.state_marginal()
    valid = marg > tol.MASS_FLOOR
    q = np.zeros(p.shape)
    q[:, :, valid] = p.table[:, :, valid] / marg[valid]
    return q, valid


class _HullColumns:
    """Column source of the hull program; vertex columns are built only on request.

    Rows are the valid cells (s, t, phi, psi), in C order, then the
    normalization row.  Columns are the vertices v = (response_a, response_b),
    A's response major, then one s+ and one s- slack per cell:
    x_v + s+ - s- = q on the cells and sum_v lambda_v = 1.  A vertex column
    holds a 1 in the cell (f_a(phi), f_b(psi), phi, psi) of every valid
    (phi, psi) and in the normalization row.

    The slacks of cell i, s+ (column n_vertices + i) and s- (column
    n_vertices + n_cells + i), are mirrored: each column is the other's
    negative, which lets the simplex's long step move a residual through
    zero inside one pivot.  Vertex columns have no mirror.
    """

    def __init__(self, valid: np.ndarray, n_s: int, n_t: int):
        n_phi, n_psi = valid.shape
        self.responses_a = responses_a = _response_table(n_s, n_phi)
        self.responses_b = responses_b = _response_table(n_t, n_psi)
        self.cell_mask = np.broadcast_to(valid, (n_s, n_t, n_phi, n_psi))
        self.n_cells = int(self.cell_mask.sum())
        self.n_vertices = len(responses_a) * len(responses_b)
        self.shape = (self.n_cells + 1, self.n_vertices + 2 * self.n_cells)
        # row_of[flat cell] is the cell's row; an invalid cell and the extra
        # last entry give n_cells, the normalization row.  A vertex column's
        # rows are row_of[part_a[response_a] + part_b[response_b]]: one flat
        # cell (f_a(phi), f_b(psi), phi, psi) per valid (phi, psi), then that
        # entry.
        self.row_of = np.full(self.cell_mask.size + 1, self.n_cells)
        self.row_of[self.cell_mask.reshape(-1).nonzero()[0]] = np.arange(self.n_cells)
        phi, psi = valid.nonzero()
        self.part_a = np.concatenate([responses_a[:, phi] * (n_t * n_phi * n_psi) + phi * n_psi + psi,
                                      np.full((len(responses_a), 1), self.cell_mask.size)], axis=1)
        self.part_b = np.concatenate([responses_b[:, psi] * (n_phi * n_psi),
                                      np.zeros((len(responses_b), 1), dtype=np.int64)], axis=1)
        # score_index[phi, k, (t, psi)] is the row of cell (response_a_k(phi), t,
        # phi, psi); pricing reads it from the cell duals padded with a zero at
        # n_cells, so an invalid cell adds 0
        within = np.arange(n_t * n_phi * n_psi).reshape(n_t, n_phi, n_psi).transpose(1, 0, 2)
        self.score_index = self.row_of[responses_a.T[:, :, None] * (n_t * n_phi * n_psi)
                                       + within.reshape(n_phi, 1, -1)]
        self.padded = np.zeros(self.n_cells + 1)
        # onehot_b[(t, psi), j] = [response_b_j(psi) == t], matching a score row
        onehot_b = np.zeros((len(responses_b), n_t, n_psi))
        onehot_b[np.arange(len(responses_b))[:, None], responses_b, np.arange(n_psi)] = 1.0
        self.onehot_b = onehot_b.reshape(len(responses_b), -1).T

    def _vertex_rows(self, vertices):
        ia, ib = divmod(vertices, len(self.responses_b))
        return self.row_of[self.part_a[ia] + self.part_b[ib]]

    def column(self, col: int):
        """Rows and value of the nonzero entries of column ``col``."""
        if col < self.n_vertices:
            return self._vertex_rows(col), 1.0
        minus, slack = divmod(col - self.n_vertices, self.n_cells)
        return slack, 1.0 - 2.0 * minus

    def columns(self, cols) -> np.ndarray:
        """The dense block of the listed columns."""
        cols = np.asarray(cols, dtype=np.int64)
        block = np.zeros((self.shape[0], cols.size))
        vertex = (cols < self.n_vertices).nonzero()[0]
        block[self._vertex_rows(cols[vertex]), vertex[:, None]] = 1.0
        slack = (cols >= self.n_vertices).nonzero()[0]
        minus, cell = np.divmod(cols[slack] - self.n_vertices, self.n_cells)
        block[cell, slack] = 1.0 - 2.0 * minus
        return block

    def prices(self, duals: np.ndarray, out: np.ndarray):
        """duals @ A into ``out``: each vertex's score under the cell functional, then the slacks'.

        The phi terms of a vertex's score are added in state order, as in
        ``games._response_scores``.
        """
        self.padded[:-1] = duals[:-1]
        score = np.add.reduce(self.padded[self.score_index], axis=0)
        vertices = out[:self.n_vertices]
        np.matmul(score, self.onehot_b, out=vertices.reshape(len(score), -1))
        vertices += duals[-1]
        out[self.n_vertices:self.n_vertices + self.n_cells] = duals[:-1]
        np.negative(duals[:-1], out=out[self.n_vertices + self.n_cells:])

    def mirror(self, cols) -> np.ndarray:
        """Each column's negative: s+ of a cell pairs with its s-; -1 for a vertex."""
        slack = np.asarray(cols) - self.n_vertices
        return np.where(slack >= 0, self.n_vertices + (slack + self.n_cells) % (2 * self.n_cells),
                        -1)


def _starting_basis(columns: _HullColumns, q: np.ndarray) -> np.ndarray:
    """The best-fitting single vertex v0, with one slack per cell: a feasible basis.

    Each valid (phi, psi) has conditionals summing to 1 and v0 marks one of
    its cells, so the L1 error of v0 is 2 (n_valid - q.x_v0): the vertex
    that fits best is the best deterministic pair of q.  Each cell row takes
    s+ where q >= x_v0 and s- elsewhere, so every basic value is nonnegative,
    and the basis is triangular.
    """
    _, fa, fb = _best_deterministic_pair(q)
    n_s, n_t, n_phi, n_psi = q.shape
    v0 = int(np.ravel_multi_index(fa + fb, (n_s,) * n_phi + (n_t,) * n_psi))
    marked = np.zeros(columns.n_cells + 1, dtype=bool)
    marked[columns.column(v0)[0]] = True
    below = q[columns.cell_mask] < marked[:-1]
    basis = columns.n_vertices + np.arange(columns.n_cells) + columns.n_cells * below
    return np.concatenate([basis, [v0]])


def _hull_program(p: JointSignalDistribution):
    """Costs, column source and right-hand side of the L1-residual hull program, and q."""
    q, valid = _conditionals(p)
    columns = _HullColumns(valid, *p.shape[:2])
    costs = np.concatenate([np.zeros(columns.n_vertices), np.ones(2 * columns.n_cells)])
    return costs, columns, np.concatenate([q[columns.cell_mask], [1.0]]), q


def _hull_membership(p: JointSignalDistribution, lp_tolerance: float) -> LocalityResult:
    n_s, n_t, n_phi, n_psi = p.shape
    n_vertices = (n_s ** n_phi) * (n_t ** n_psi)
    if n_vertices > tol.VERTEX_CAP:
        raise AlphabetCapExceeded(
            f"{n_vertices} hull vertices exceed the hull-LP cap {tol.VERTEX_CAP}"
        )

    costs, columns, b_eq, q = _hull_program(p)
    result = solve_lp(costs, columns, b_eq, basis=_starting_basis(columns, q))
    residual = max(float(result.objective), 0.0)
    feasible = residual <= lp_tolerance

    weights = certificate = gap = None
    if feasible:
        raw = result.x[:n_vertices]
        picked = []
        for v in (raw > 1e-12).nonzero()[0]:
            ia, ib = divmod(int(v), len(columns.responses_b))
            picked.append((
                tuple(p.s_labels[s] for s in columns.responses_a[ia]),
                tuple(p.t_labels[t] for t in columns.responses_b[ib]),
                float(raw[v]),
            ))
        weights = tuple(picked)
    else:
        certificate, gap = _bell_certificate(result.duals[:-1], columns.cell_mask, q,
                                             lp_tolerance)
    return LocalityResult(feasible=feasible, residual=residual, tolerance=lp_tolerance,
                          weights=weights, certificate=certificate, certificate_gap=gap,
                          pivots=result.pivots)


def _bell_certificate(duals: np.ndarray, cell_mask: np.ndarray, q: np.ndarray,
                      lp_tolerance: float):
    """The cell functional y of the hull program's duals, and its separation gap.

    The duals make every vertex column's reduced cost nonnegative, so
    y.x_v <= y.q - residual for every deterministic pair v.  The gap
    y.q - max_v y.x_v is computed independently of the solver, by the
    enumeration behind ``classical_value``; a gap at or below the tolerance
    means the duals do not certify the verdict.
    """
    functional = np.zeros(q.shape)
    functional[cell_mask] = duals
    classical_max, _, _ = _best_deterministic_pair(functional)
    gap = float((functional * q).sum()) - classical_max
    if not gap > lp_tolerance:
        raise SolverLimitReached(
            f"the hull program's duals separate by {gap:.3e}, not above {lp_tolerance}"
        )
    functional.setflags(write=False)
    return functional, gap


def classify(
    p: JointSignalDistribution,
    prior_a,
    prior_b,
    *,
    profile: tol.ToleranceProfile = tol.DEFAULT_PROFILE,
) -> ClassificationResult:
    """Compose the three checks into a single verdict.

    Signalling when disjointness fails; otherwise ClassicallyGenerated or
    Entangled according to hull membership of the conditionals.
    """
    disjoint = check_disjoint(p, tolerance=profile.disjoint)
    consistent = check_state_consistent(p, prior_a, prior_b, tolerance=profile.prob)
    if not disjoint.passed:
        return ClassificationResult(disjoint, consistent, None, Verdict.SIGNALLING)
    locality = _hull_membership(p, profile.lp)
    verdict = Verdict.CLASSICALLY_GENERATED if locality.feasible else Verdict.ENTANGLED
    return ClassificationResult(disjoint, consistent, locality, verdict)


def theorem2_transform(p: JointSignalDistribution) -> JointSignalDistribution:
    """Replace the joint by the product of its (s, t, phi) marginal with the psi marginal.

    The psi marginal is divided by its own sum, so the (s, t, phi) marginal,
    and with it the table's mass, is preserved: any payoff that ignores psi
    takes the same expected value on the output as on the input.
    """
    stf = p.table.sum(axis=3)
    psi = p.table.sum(axis=(0, 1, 2))
    return _derived(p.s_labels, p.t_labels, p.phi_labels, p.psi_labels,
                    _einsum("stf,w->stfw", stf, psi / psi.sum()))


def expected_signal_payoff(p: JointSignalDistribution, payoff: np.ndarray) -> float:
    """Expected payoff sum payoff[s, t, phi, psi] * p[s, t, phi, psi].

    The mass function already carries the state priors, so no extra
    weighting is applied.  Signals are identified with actions.
    """
    payoff = _real_array(payoff, "payoff")
    if payoff.shape != p.shape:
        raise ShapeMismatch(f"payoff shape {payoff.shape} vs distribution shape {p.shape}")
    return float(_einsum("stfw,stfw->", payoff, p.table))


def _quantile_mixture(p: JointSignalDistribution, lp_tolerance: float) -> LocalityResult:
    """Shared t ~ p(t) and uniform u; B outputs t, A the u-quantile of p(s | t, phi).

    Per t, the breakpoints of every phi's cumulative p(s | t, phi) cut [0, 1]
    into intervals, each a deterministic pair of weight p(t) * length; an empty
    (t, phi) plays the last outcome and a zero p(t) adds no piece.  The
    residual is the mixture's L1 error on the cells the hull program uses.
    """
    _, n_t, n_phi, n_psi = p.shape
    stf = p.table.sum(axis=3)                                   # p(s, t, phi)
    t_phi = stf.sum(axis=0)
    s_given = np.divide(stf, t_phi, out=np.zeros(stf.shape), where=t_phi > 0)
    cuts = s_given.cumsum(axis=0)[:-1].clip(0.0, 1.0)          # [k, t, phi]
    ends = np.concatenate([np.zeros((n_t, 1)), cuts.transpose(1, 0, 2).reshape(n_t, -1),
                           np.ones((n_t, 1))], axis=1)
    ends.sort(axis=1)
    lo, hi = ends[:, :-1], ends[:, 1:]                          # [t, interval]
    # A's quantile at the interval's midpoint: the number of cuts at or below it
    response = (cuts[:, :, None, :] <= (lo + hi)[None, :, :, None] / 2).sum(axis=0)
    weight = stf.sum(axis=(0, 2))[:, None] * (hi - lo)
    t, i = (weight > 0).nonzero()
    responses_a, weight = response[t, i], weight[t, i]
    q, valid = _conditionals(p)
    model = np.zeros(p.shape)
    np.add.at(model, (responses_a[:, :, None], t[:, None, None], np.arange(n_phi)[:, None],
                      np.arange(n_psi)), weight[:, None, None])
    residual = float(np.abs(model - q)[:, :, valid].sum())
    pieces = tuple((tuple(p.s_labels[s] for s in a), (p.t_labels[b],) * n_psi, float(w))
                   for a, b, w in zip(responses_a, t, weight))
    return LocalityResult(residual <= lp_tolerance, residual, lp_tolerance, weights=pieces)


@dataclass(frozen=True)
class Theorem2Report:
    """Payoffs under a distribution and its transform, classified by the quantile model."""

    payoff_original: float
    payoff_transformed: float
    difference: float
    tolerance: float
    transformed_classification: ClassificationResult

    @property
    def passed(self) -> bool:
        return (
            self.difference <= self.tolerance
            and self.transformed_classification.verdict is Verdict.CLASSICALLY_GENERATED
        )


def verify_theorem2(game: Game, p: JointSignalDistribution, *,
                    profile: tol.ToleranceProfile = tol.DEFAULT_PROFILE) -> Theorem2Report:
    """Check that dropping the psi correlations costs nothing when payoffs ignore psi.

    The payoff must be exactly constant along the psi axis, and the
    distribution disjoint and state-consistent with the game's priors at
    ``profile``'s thresholds.  The report compares the expected payoff under
    the distribution with the payoff under its product-form transform.  The
    transform is ClassicallyGenerated when disjoint and within ``profile.lp``
    of the quantile model, else Signalling: its p(t | phi) depends on phi.
    """
    if game.shape != p.shape:
        raise ShapeMismatch(f"game shape {game.shape} vs distribution shape {p.shape}")
    if float((game.payoff.max(axis=3) - game.payoff.min(axis=3)).max()) > 0.0:
        raise PayoffDependsOnPsi("payoff varies along the psi axis")
    disjoint = check_disjoint(p, tolerance=profile.disjoint)
    if not disjoint.passed:
        raise NotDisjoint(f"signals leak state information (deviation {disjoint.max_violation:.3e})")
    # validated once, as check_state_consistent would, for both checks; the
    # payoffs are expected_signal_payoff's contraction, its shape check done
    pa = _validate_prior(game.prior_a, len(p.phi_labels), "prior_a")
    pb = _validate_prior(game.prior_b, len(p.psi_labels), "prior_b")
    consistent = _state_consistency(p, pa, pb, profile.prob)
    if not consistent.passed:
        raise NotStateConsistent(
            f"(phi, psi) marginal deviates from the priors by {consistent.max_violation:.3e}"
        )

    transformed = theorem2_transform(p)
    value_original = float(_einsum("stfw,stfw->", game.payoff, p.table))
    value_transformed = float(_einsum("stfw,stfw->", game.payoff, transformed.table))
    disjoint = check_disjoint(transformed, tolerance=profile.disjoint)
    consistent = _state_consistency(transformed, pa, pb, profile.prob)
    locality = _quantile_mixture(transformed, profile.lp)
    verdict = (Verdict.CLASSICALLY_GENERATED if disjoint.passed and locality.feasible
               else Verdict.SIGNALLING)
    return Theorem2Report(
        payoff_original=value_original,
        payoff_transformed=value_transformed,
        difference=abs(value_original - value_transformed),
        tolerance=profile.theorem2,
        transformed_classification=ClassificationResult(disjoint, consistent, locality, verdict),
    )
