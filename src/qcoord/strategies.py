"""Quantum strategies for coordination games and lower-bound optimizers.

A quantum strategy measures a shared entangled state with a per-state
measurement family and plays outcome i as action i.  No other outcome-to-action
map is needed: relabeling outcomes is the same as permuting or summing the
measurement's operators (for projective pairs, shifting the angle by pi/2).

Two optimizers produce lower bounds on the quantum value of a binary-action
game, both by alternating exact best responses from many starts.
``optimize_angles`` works in the one-parameter real projective family per
state on a two-qubit state, where the payoff is affine in each player's
Bloch unit vectors and each best response is closed form; a coarse
grid over player A's angles seeds one start.  ``seesaw_optimize`` works over
general two-outcome POVMs, each held as its observable M0 - M1 in real
coordinates of an orthonormal Hermitian basis, where each best response is
the sign of a gain operator (closed form for qubits, one eigendecomposition
otherwise).  Both are deterministic given the config seed, and
both sweep all restarts together through vectorized linear algebra, bit
for bit as a row-major layout would (see :class:`_AlternatingEngine`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Mapping

import numpy as np

from . import tolerances as tol
from .errors import (
    DimensionMismatch,
    IncompatibleLabels,
    InvalidConfig,
    NonBinaryActions,
    ValidationError,
)
from .games import (
    BehaviorTable,
    CHSH_ANGLES_A,
    CHSH_ANGLES_B,
    Game,
    _count_nonzero,
    _einsum,
    _frozen,
    _unchecked,
    expected_payoff,
)
from .quantum import (
    DensityMatrix,
    Measurement,
    MeasurementFamily,
    _outcome_tables,
    _trace_pairs,
    angle_family,
)

_GRID_CAP = 10**6
# the longest gap between the copies of B's rows that each sweep is compared
# with, kept after sweeps 0, 1, 2 and 4 and then every this many sweeps: a
# column that cycles with period at most this is found within two gaps of
# entering its cycle, a longer period never
_REPEAT_WINDOW = 8


def _frozen_angles(angles, name: str) -> Mapping[str, float]:
    items = {str(k): float(v) for k, v in dict(angles).items()}
    if not items:
        raise ValidationError(f"{name}: must be non-empty")
    if not all(math.isfinite(v) for v in items.values()):
        raise ValidationError(f"{name}: angles must be finite")
    return MappingProxyType(items)


@dataclass(frozen=True)
class QubitAngleStrategy:
    """One projective-pair angle per private state, for each player."""

    angles_a: Mapping[str, float]
    angles_b: Mapping[str, float]

    def __post_init__(self):
        object.__setattr__(self, "angles_a", _frozen_angles(self.angles_a, "angles_a"))
        object.__setattr__(self, "angles_b", _frozen_angles(self.angles_b, "angles_b"))


def chsh_reference_strategy() -> QubitAngleStrategy:
    """Angles equal to the numeric value of each private state of the CHSH game."""
    return QubitAngleStrategy(CHSH_ANGLES_A, CHSH_ANGLES_B)


@dataclass(frozen=True)
class QuantumStrategyProfile:
    """Shared state and a measurement family per player; outcome i is action i."""

    shared_state: DensityMatrix
    family_a: MeasurementFamily
    family_b: MeasurementFamily
    # identity outcome-to-action maps, kept for callers that still read them
    outcome_to_action_a: tuple = field(init=False)
    outcome_to_action_b: tuple = field(init=False)

    def __post_init__(self):
        if self.shared_state.dim != self.family_a.dim * self.family_b.dim:
            raise DimensionMismatch(
                f"shared state dim {self.shared_state.dim} is not "
                f"{self.family_a.dim} * {self.family_b.dim}"
            )
        object.__setattr__(self, "outcome_to_action_a", tuple(range(self.family_a.n_outcomes)))
        object.__setattr__(self, "outcome_to_action_b", tuple(range(self.family_b.n_outcomes)))


@dataclass(frozen=True)
class OptimizerConfig:
    """Search settings shared by both optimizers.

    ``grid_points`` is the number of grid angles per player-A state in
    :func:`optimize_angles`; ``refine_iterations`` is the number of
    best-response sweeps, at least one, whose result every restart returns
    (a restart's state is its player-B strategies, and it stops sweeping
    early, with that result, once they repeat bit for bit);
    ``restarts`` is the number of random starts; ``seed`` seeds the random
    starts.  Every field is stored as a Python int.
    """

    grid_points: int = 24
    refine_iterations: int = 200
    restarts: int = 8
    seed: int = 0

    def __post_init__(self):
        # bool is an int subclass, but True is no count or seed; numpy's
        # generators take only nonnegative seeds
        for name, least in (("grid_points", 1), ("refine_iterations", 1), ("restarts", 1), ("seed", 0)):
            v = getattr(self, name)
            if isinstance(v, bool) or not isinstance(v, (int, np.integer)) or v < least:
                raise InvalidConfig(f"{name} must be an integer >= {least}, got {v!r}")
            # a Python int: a numpy integer's grid_points ** states wraps past the grid cap
            object.__setattr__(self, name, int(v))


def behavior_from_profile(profile: QuantumStrategyProfile, game: Game) -> BehaviorTable:
    """Conditional action distribution induced by measuring; outcome i is action i."""
    fam_a, fam_b = profile.family_a, profile.family_b
    if set(fam_a.labels) != set(game.states_a):
        raise IncompatibleLabels(
            f"family A labels {sorted(fam_a.labels)} vs game states {sorted(game.states_a)}"
        )
    if set(fam_b.labels) != set(game.states_b):
        raise IncompatibleLabels(
            f"family B labels {sorted(fam_b.labels)} vs game states {sorted(game.states_b)}"
        )
    n_s, n_t = fam_a.n_outcomes, fam_b.n_outcomes
    n_a, n_b = len(game.actions_a), len(game.actions_b)
    if n_s > n_a or n_t > n_b:
        raise IncompatibleLabels(f"outcomes ({n_s}, {n_t}) exceed the game's actions ({n_a}, {n_b})")

    tables = _outcome_tables(profile.shared_state, [fam_a[f] for f in game.states_a],
                             [fam_b[w] for w in game.states_b])
    q = np.zeros((n_a, n_b, len(game.states_a), len(game.states_b)))
    q[:n_s, :n_t] = tables.transpose(2, 3, 0, 1)
    return BehaviorTable(q)


def _require_binary(game: Game):
    if len(game.actions_a) != 2 or len(game.actions_b) != 2:
        raise NonBinaryActions(
            f"need two actions per player, got {len(game.actions_a)} and {len(game.actions_b)}"
        )


def _require_qubit_pair(game: Game, shared: DensityMatrix):
    """The preconditions of an angle strategy: two actions per player and a two-qubit state."""
    _require_binary(game)
    if shared.dim != 4:
        raise DimensionMismatch(f"shared state dim {shared.dim}, expected 4 (qubit pair)")


def evaluate_qubit_strategy(game: Game, strategy: QubitAngleStrategy, shared: DensityMatrix) -> float:
    """Expected payoff of a projective-pair angle strategy on a two-qubit state."""
    _require_qubit_pair(game, shared)
    if set(strategy.angles_a) != set(game.states_a) or set(strategy.angles_b) != set(game.states_b):
        raise IncompatibleLabels("strategy angle labels do not match the game's states")
    fam_a = angle_family({f: strategy.angles_a[f] for f in game.states_a})
    fam_b = angle_family({w: strategy.angles_b[w] for w in game.states_b})
    profile = QuantumStrategyProfile(shared, fam_a, fam_b)
    return expected_payoff(game, behavior_from_profile(profile, game))


def _one_thread(threads: int):
    # the keyword stays for callers that still pass threads=1
    if threads != 1:
        raise InvalidConfig(f"threads must be 1, got {threads!r}: restarts run in the calling thread")


_OUTCOME_SIGNS = np.array([1.0, -1.0])


def _signed_weights(game: Game):
    """The payoff's weights on the players' observables.

    A binary measurement {M0, M1} enters the payoff only through its
    observable A = M0 - M1, since M_a = (I + s_a A) / 2 with s = (+1, -1).
    So the payoff is w0 + sum_f wa_f <A_f> + sum_w wb_w <B_w>
    + sum_fw wab_fw <A_f x B_w>; returns ``(w0, wa, wb, wab)``, the
    prior-weighted payoff contracted with the outcome signs.
    """
    weighted = game.payoff * (game.prior_a[:, None] * game.prior_b) / 4.0
    return (float(weighted.sum()),
            _einsum("a,abfw->f", _OUTCOME_SIGNS, weighted),
            _einsum("b,abfw->w", _OUTCOME_SIGNS, weighted),
            _einsum("a,b,abfw->fw", _OUTCOME_SIGNS, _OUTCOME_SIGNS, weighted))


def _padded(x: np.ndarray, ones: int) -> np.ndarray:
    """x, of shape (coordinates, batch), over ``ones`` rows of ones in a new C-contiguous array.

    A lone column is held twice: einsum drops a length-1 axis and then sums
    that column's coordinates in another order, so every kernel runs on at
    least two columns.
    """
    rows = np.ones((x.shape[0] + ones, max(x.shape[1], 2)))
    rows[:x.shape[0]] = x
    return rows


def _kron(w: np.ndarray, t: np.ndarray) -> np.ndarray:
    """np.kron(w, t) of two matrices as one broadcast product, without np.kron's set-up cost.

    Entry (f k + i, g l + j) is the one product w_fg t_ij, as in np.kron, so
    the bits are the same.
    """
    return (w[:, None, :, None] * t[None, :, None, :]).reshape(w.shape[0] * t.shape[0], -1)


def _gain(to: np.ndarray, x: np.ndarray) -> np.ndarray:
    """to @ [x; 1] by numpy's own einsum loop, never a BLAS product, whose rounding can depend on the batch width."""
    return _einsum("lk,kb->lb", to, _padded(x, 1))[:, :x.shape[1]]


def _inner(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """sum x y over the coordinate axis: tr(X Y) for Hermitian X, Y in orthonormal real coordinates.

    The products are written restart-major and numpy sums each row, so a
    value has the bits a row-major batch of strategies gets from
    ``.sum(axis=-1)`` and restarts that tie within rounding keep the same
    winner.
    """
    return np.multiply(x.T, y.T, order="C").sum(axis=-1)


class _AlternatingEngine:
    """Batched alternating exact best responses on the :func:`_signed_weights` form.

    Each player's strategies are real vectors per state, held
    coordinate-major: C-contiguous arrays of shape (states * k, batch),
    state-major down the first axis, one restart per column (einsum and
    reductions pick their summation order from the memory layout).  They
    are Bloch unit vectors for the angle engine and observable coordinates
    for the see-saw, and the payoff is bilinear in them.  A subclass passes
    its operator stacks to ``set_terms``, which sets ``w0`` and the maps
    ``to_a`` = [coupling | local_a] and ``to_b`` = [coupling^T | local_b]:
    with B's strategies y fixed, the payoff is w0 + <to_a @ [y; 1], x> in
    A's strategies x, and likewise for B.  With the local term folded into
    the last column a gain is one einsum, equal to local + coupling @ y to
    the last bit, since einsum adds the k terms in order and the constant
    one comes last.  ``kernel(gain, out, dim)`` gives a function that writes
    the best responses to the gains in ``gain`` into ``out``, for a player
    of dimension ``dim_a`` or ``dim_b``, through buffers of its own;
    ``best(gain, dim)`` runs it once into a new array.  Every
    operation acts on each column alone and sums in a fixed order, so a
    restart's trajectory never depends on the rest of its batch, and equals
    the one a row-major (batch, states, k) layout gets from numpy
    (``tests/rowmajor.py`` keeps that layout as the reference).
    """

    def set_terms(self, game: Game, shared: DensityMatrix, ops_a: np.ndarray, ops_b: np.ndarray):
        """The form's terms for strategies held as coordinates x_k on operator stacks.

        A player's observable is sum_k x_k ops_k, so the local terms come
        from tr(rho (ops_k x I)) and tr(rho (I x ops_k)) and the coupling
        from the correlations tr(rho (ops_a_i x ops_b_j)); all three are one
        trace-rule table over the stacks with the identity put first.
        """
        first = np.concatenate([np.eye(self.dim_a)[None], ops_a])
        second = np.concatenate([np.eye(self.dim_b)[None], ops_b])
        table = _trace_pairs(shared.matrix, first, second)
        corr = table[1:, 1:]
        self.w0, wa, wb, wab = _signed_weights(game)
        # concatenate writes C order whatever the state counts: einsum's summation order follows the layout
        self.to_a = np.concatenate([_kron(wab, corr), _kron(wa[:, None], table[1:, :1])], axis=1)
        self.to_b = np.concatenate([_kron(wab.T, corr.T), _kron(wb[:, None], table[:1, 1:].T)], axis=1)

    def best(self, gain: np.ndarray, dim: int) -> np.ndarray:
        """Best responses to ``gain``, of shape (states * k, batch), in a new C-contiguous array."""
        padded = _padded(gain, 0)
        out = np.empty_like(padded)
        self.kernel(padded, out, dim)()
        return np.ascontiguousarray(out[:, :gain.shape[1]])

    def respond_b(self, ms: np.ndarray) -> np.ndarray:
        return self.best(_gain(self.to_b, ms), self.dim_b)

    def values(self, ms: np.ndarray, ns: np.ndarray) -> np.ndarray:
        """Payoff of every column."""
        # A's local term is the last column of to_a
        return self.w0 + _inner(ms, self.to_a[:, -1:]) + _inner(ns, _gain(self.to_b, ms))

    def _batch(self, rows_b: np.ndarray):
        """A batch over B's rows ``rows_b``: A's rows, all ones, and the buffers and kernels of its half-sweeps.

        The kernels write both players' best responses above their row of
        ones.  ``rows_b`` must be C-contiguous: a kernel reshapes the rows it
        writes, and reshaping any other layout would copy them, so the
        responses would land in the copy.  Also returns B's rows as bits and
        the two masks the repeat check writes into.
        """
        rows_a = np.ones((len(self.to_a) + 1, rows_b.shape[1]))
        gain_a, gain_b = np.empty_like(rows_a[:-1]), np.empty_like(rows_b[:-1])
        # bits, not values: 0.0 == -0.0, but a zero's sign can reach later gains
        bits_b = rows_b.view(np.uint64)
        return (rows_a, gain_a, gain_b, self.kernel(gain_a, rows_a[:-1], self.dim_a),
                self.kernel(gain_b, rows_b[:-1], self.dim_b), bits_b,
                np.empty(bits_b.shape, bool), np.empty(bits_b.shape[1], bool))

    def sweep(self, ns: np.ndarray, sweeps: int):
        """Run ``sweeps`` alternating best responses, A's then B's, from B's strategies ``ns``.

        Each player's strategies sit in one buffer over a row of ones, and
        each response is written straight into those rows, so a half-sweep
        is one einsum and one kernel call on buffers allocated per batch.
        A sweep writes A's rows before it reads them, so B's rows are a
        column's whole state, and each column reads only its own.  B's rows
        are kept at the start and after sweeps 1, 2 and 4, then after every
        ``_REPEAT_WINDOW``-th sweep, and after each sweep every column is
        compared with the latest copy bit for bit.  A column that matches
        after sweep k repeats from the kept sweep j on with period k - j, so
        its state after ``sweeps`` sweeps is its state after the next count
        congruent to ``sweeps`` modulo k - j; a column that never matches
        has its result after the last sweep.  Departures are the one place
        a batch changes: the leaving columns' rows are copied by index
        straight into the results, the run stops when no column is left to
        sweep, and when at most half of a batch wider than two is still to
        leave, those columns go on as a narrower batch of B's rows alone,
        with buffers and kernels of its own (a lone column held twice, as
        ``_padded`` holds it).  ``OptimizerConfig`` asks for at least one sweep.
        Returns the final strategies of both players, in new arrays, and
        their values; ``ns`` is not written to.
        """
        rows_b = _padded(ns, 1)
        final_a, final_b = np.empty((len(self.to_a), ns.shape[1])), np.empty(ns.shape)
        # the restart each column sweeps: a lone restart is held in both
        origin = np.arange(rows_b.shape[1]) % ns.shape[1]
        rows_a, gain_a, gain_b, best_a, best_b, bits_b, same, fresh = self._batch(rows_b)
        kept, kept_at = bits_b.copy(), 0
        # the count after which each column leaves with its result, the last
        # sweep until it repeats; a repeated column's kept row of ones is
        # zeroed, so that it never matches again, and only the rows above it
        # are kept afresh
        leave = np.full(bits_b.shape[1], sweeps)
        counts = {sweeps}
        for done in range(1, sweeps + 1):
            _einsum("lk,kb->lb", self.to_a, rows_b, out=gain_a)
            best_a()
            _einsum("lk,kb->lb", self.to_b, rows_a, out=gain_b)
            best_b()
            np.equal(bits_b, kept, out=same)
            if _count_nonzero(np.logical_and.reduce(same, axis=0, out=fresh)):
                # every column that matches now has the period done - kept_at
                count = done + (sweeps - done) % (done - kept_at)
                leave[fresh] = count
                counts.add(count)
                kept[-1, fresh] = 0
            if done in counts:
                now = (leave == done).nonzero()[0]
                at = origin[now]
                final_a[:, at] = rows_a[:-1].take(now, axis=1)
                final_b[:, at] = rows_b[:-1].take(now, axis=1)
                keep = (leave > done).nonzero()[0]
                if not keep.size:
                    break
                # a batch of two stays: its last column held twice is as wide
                if leave.size > 2 and 2 * keep.size <= leave.size:
                    # take gathers in C order, the kernels' order; a fancy
                    # index would gather in Fortran order
                    keep = keep.repeat(2) if keep.size == 1 else keep
                    rows_b, kept = rows_b.take(keep, axis=1), kept.take(keep, axis=1)
                    origin, leave = origin[keep], leave[keep]
                    rows_a, gain_a, gain_b, best_a, best_b, bits_b, same, fresh = self._batch(rows_b)
            if done - kept_at == min(max(kept_at, 1), _REPEAT_WINDOW):
                np.copyto(kept[:-1], bits_b[:-1])
                kept_at = done
        return final_a, final_b, self.values(final_a, final_b)

    def best_restart(self, ns: np.ndarray, cfg: OptimizerConfig):
        """The best column's strategies after sweeping every restart from B's strategies ``ns``; ties go to the earliest."""
        final_ms, final_ns, values = self.sweep(ns, cfg.refine_iterations)
        best = int(values.argmax())
        return final_ms[:, best], final_ns[:, best]


_ZX = np.array([[[1.0, 0.0], [0.0, -1.0]], [[0.0, 1.0], [1.0, 0.0]]])


def _unit_vectors(angles: np.ndarray) -> np.ndarray:
    """Bloch vectors (cos 2t, sin 2t) of the outcome-0 projectors at angles t.

    ``angles`` has shape (batch, states); the vectors come coordinate-major,
    a C-contiguous (states * 2, batch) array.
    """
    doubled = 2.0 * angles
    vectors = np.stack([np.cos(doubled), np.sin(doubled)], axis=-1)
    return np.ascontiguousarray(vectors.reshape(angles.shape[0], -1).T)


class _AngleEngine(_AlternatingEngine):
    """Payoff of real projective pairs on a two-qubit state as a form in Bloch vectors.

    P0(t) = (I + cos 2t Z + sin 2t X) / 2, so with u_f and v_w the unit vectors
    of the two players' angles the :func:`_signed_weights` form reads

        w0 + sum_f wa_f (alpha . u_f) + sum_w wb_w (beta . v_w) + sum_fw wab_fw (u_f^T C v_w)

    where alpha, beta are the Z/X Bloch components of the marginals and C is
    the ZX correlation block tr(rho P ox Q).  Holding one side fixed leaves a
    linear form d . x in each of the other side's vectors, maximized by
    aligning the vector with d (worth |d|).  Strategies are batches of unit
    vectors, shape (states * 2, batch).
    """

    dim_a = dim_b = 2

    def __init__(self, game: Game, shared: DensityMatrix):
        self.set_terms(game, shared, _ZX, _ZX)

    def kernel(self, gain: np.ndarray, out: np.ndarray, dim: int):
        """Writes each state's gain over its norm into ``out``; a zero gain (every direction optimal) gets (1, 0).

        ``gain`` and ``out`` are C-contiguous (states * dim, batch) arrays.
        """
        states, width = gain.shape[0] // dim, gain.shape[1]
        d, x = gain.reshape(states, dim, width), out.reshape(states, dim, width)
        norm = np.empty((states, width))
        divisor = norm[:, None]

        def best():
            _einsum("sib,sib->sb", d, d, out=norm)
            np.sqrt(norm, out=norm)
            if _count_nonzero(norm) == norm.size:
                np.divide(d, divisor, out=x)
                return
            zero = (norm == 0.0)[:, None]
            np.divide(d, divisor, out=x, where=~zero)
            np.copyto(x[:, :1], 1.0, where=zero)
            np.copyto(x[:, 1:], 0.0, where=zero)

        return best


def optimize_angles(
    game: Game,
    shared: DensityMatrix,
    cfg: OptimizerConfig | None = None,
    *,
    threads: int = 1,
):
    """Alternating exact best responses over real projective-pair angles.

    For fixed angles of one player, the other's best angle in every state is
    closed form, so only player A's angles are searched: a coarse grid of
    ``cfg.grid_points`` per A state, each point scored with B's exact best
    response, seeds one run and ``cfg.restarts`` further runs start from
    uniformly random A angles.  Every run alternates exact best responses
    (values never decrease) and returns its state after
    ``cfg.refine_iterations`` sweeps.

    Returns ``(best_strategy, value)`` where the value is recomputed through
    :func:`evaluate_qubit_strategy` on the winning angles; ties go to the
    earliest start.  Only traceless real-plane projective pairs are
    searched, never the deterministic answers (+-I), so the value can fall
    below the classical one: 0.676776695296637 on CHSH with the p = 0.5
    Werner state at ``OptimizerConfig(seed=0)``, where the see-saw gets
    0.75.  Restarts run in the calling thread; ``threads`` must be 1.
    """
    _one_thread(threads)
    cfg = cfg or OptimizerConfig()
    _require_qubit_pair(game, shared)
    n_phi = len(game.states_a)
    if cfg.grid_points ** n_phi > _GRID_CAP:
        raise InvalidConfig(
            f"grid of {cfg.grid_points}^{n_phi} points exceeds {_GRID_CAP}; lower grid_points"
        )

    engine = _AngleEngine(game, shared)

    # projective pairs have period pi, so the grid never needs the endpoint
    axis = np.linspace(0.0, math.pi, cfg.grid_points, endpoint=False)
    grid = np.stack(np.meshgrid(*([axis] * n_phi), indexing="ij"), axis=-1).reshape(-1, n_phi)
    grid_us = _unit_vectors(grid)
    grid_values = engine.values(grid_us, engine.respond_b(grid_us))
    grid_best = grid[int(grid_values.argmax())]

    rng = np.random.default_rng(cfg.seed)
    starts = np.vstack([
        grid_best[None, :],
        rng.uniform(0.0, math.pi, size=(cfg.restarts, n_phi)),
    ])

    us = _unit_vectors(starts)
    u, v = (x.reshape(-1, 2) for x in engine.best_restart(engine.respond_b(us), cfg))
    angles_a = np.arctan2(u[:, 1], u[:, 0]) / 2.0
    angles_b = np.arctan2(v[:, 1], v[:, 0]) / 2.0
    strategy = QubitAngleStrategy(
        angles_a={f: float(angles_a[i]) for i, f in enumerate(game.states_a)},
        angles_b={w: float(angles_b[i]) for i, w in enumerate(game.states_b)},
    )
    return strategy, evaluate_qubit_strategy(game, strategy, shared)


_SQRT2 = math.sqrt(2.0)


def _hermitian_basis(dim: int) -> np.ndarray:
    """Orthonormal Hermitian basis B_k of dim x dim matrices, tr(B_i B_j) = delta_ij.

    Qubits use (I, X, Y, Z) / sqrt 2.  Larger dimensions use the dim diagonal
    units E_ii, then for each i < j the pair (E_ij + E_ji) / sqrt 2 and
    i (E_ij - E_ji) / sqrt 2, whose coordinates are sqrt 2 Re H_ij and
    sqrt 2 Im H_ij.  Returns shape (dim^2, dim, dim).
    """
    if dim == 2:
        return np.array([[[1, 0], [0, 1]], [[0, 1], [1, 0]],
                         [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]]) / _SQRT2
    basis = [np.diag(np.eye(dim)[i]).astype(complex) for i in range(dim)]
    for i in range(dim):
        for j in range(i + 1, dim):
            for phase in (1.0, 1j):
                b = np.zeros((dim, dim), dtype=complex)
                b[i, j], b[j, i] = phase / _SQRT2, np.conj(phase) / _SQRT2
                basis.append(b)
    return np.array(basis)


def _coordinates(basis: np.ndarray, matrices: np.ndarray) -> np.ndarray:
    """Real coordinates tr(B_k H) of Hermitian matrices H, on the last axis."""
    return _einsum("kji,...ij->...k", basis, matrices).real


def _qubit_coordinates(re: np.ndarray, im: np.ndarray) -> np.ndarray:
    """``_coordinates`` on (I, X, Y, Z) / sqrt 2 of the Hermitian part of re + i im, in real arithmetic.

    ``re`` and ``im`` have shape (..., 2, 2); the coordinates come on the
    last axis.  Each coordinate of the complex einsum has exactly two
    nonzero terms, b re00 and +-b re11 on I and Z, and twice b h on X and
    Y, with h the halved sum or difference of the off-diagonal parts that
    the Hermitian part holds; two terms add the same in any order, so the
    bits are the einsum's.  Only a zero's sign differs: einsum adds onto
    +0.0, so its zeros are +0.0, and adding +0.0 clears the -0.0 this form
    can give.
    """
    b = 1.0 / _SQRT2
    re00, re11 = re[..., 0, 0], re[..., 1, 1]
    coords = np.empty(re.shape[:-2] + (4,))
    coords[..., 0] = b * re00 + b * re11
    h = b * ((re[..., 0, 1] + re[..., 1, 0]) * 0.5)
    coords[..., 1] = h + h
    h = b * ((im[..., 1, 0] - im[..., 0, 1]) * 0.5)
    coords[..., 2] = h + h
    coords[..., 3] = b * re00 - b * re11
    coords += 0.0
    return coords


class _SeesawEngine(_AlternatingEngine):
    """Batched alternating best responses for binary-outcome measurements.

    A binary measurement is held as its observable A = M0 - M1 in the real
    coordinates of :func:`_hermitian_basis`, so the payoff is the same
    bilinear form as in :class:`_AngleEngine`: the local terms are the
    coordinates of wa_f rho_A and wb_w rho_B, and the coupling is the
    correlation matrix T_ij = tr(rho (B_i x B_j)).  With B fixed the payoff
    is a constant plus sum_f tr(A_f K_f), maximized by A_f = sign(K_f), with
    the eigenvalues >= -TOL_PSD taking the sign +1 (outcome 0); the same holds
    for B.  Strategies have shape (states * dim^2, batch), and :meth:`povms`
    turns one restart's column into {(I + A) / 2, (I - A) / 2}.
    """

    def __init__(self, game: Game, shared: DensityMatrix, dims: tuple):
        self.dim_a, self.dim_b = da, db = dims
        self.bases = {da: _hermitian_basis(da), db: _hermitian_basis(db)}
        self.set_terms(game, shared, self.bases[da], self.bases[db])

    def kernel(self, gain: np.ndarray, out: np.ndarray, dim: int):
        """Writes sign(K) of each state's gain operator K into ``out``, the eigenvalues >= -TOL_PSD taking +1.

        ``gain`` and ``out`` are C-contiguous (states * dim^2, batch) arrays.
        """
        k, width = dim * dim, gain.shape[1]
        states = gain.shape[0] // k
        g, x = gain.reshape(states, k, width), out.reshape(states, k, width)
        if dim != 2:
            basis = self.bases[dim]

            def best():
                # eigh wants each matrix's coordinates last, so the rows go restart-major and back
                rows = np.ascontiguousarray(g.transpose(2, 0, 1))
                w, u = np.linalg.eigh(_einsum("...k,kij->...ij", rows, basis))
                signs = np.where(w >= -tol.TOL_PSD, 1.0, -1.0)
                coords = _coordinates(basis, _einsum("...ie,...e,...je->...ij", u, signs, u.conj()))
                np.copyto(x, coords.transpose(1, 2, 0))

            return best
        # K = (t I + r . sigma) / sqrt 2 has eigenvalues (t +- |r|) / sqrt 2, so
        # sign(K) is I when both pass the cut, -I when neither does, and
        # r / |r| . sigma otherwise, where |r| > 0
        t, r, trace, traceless = g[:, 0], g[:, 1:], x[:, 0], x[:, 1:]
        norm, shifted = np.empty((states, width)), np.empty((states, width))
        both, neither = np.empty((states, width), bool), np.empty((states, width), bool)
        # the flags read as 0/1 bytes, so that +-1 or 0 is one int8 subtraction
        flags, sign = (both.view(np.int8), neither.view(np.int8)), np.empty((states, width), np.int8)
        scale = norm[:, None]
        cut = -_SQRT2 * tol.TOL_PSD

        def best():
            _einsum("sib,sib->sb", r, r, out=norm)
            np.sqrt(norm, out=norm)
            np.subtract(t, norm, out=shifted)
            np.greater_equal(shifted, cut, out=both)
            np.add(t, norm, out=shifted)
            np.less(shifted, cut, out=neither)
            np.subtract(*flags, out=sign)
            np.multiply(sign, _SQRT2, out=trace)
            # +-I: an infinite norm zeroes r
            np.logical_or(both, neither, out=both)
            np.copyto(norm, np.inf, where=both)
            np.divide(_SQRT2, norm, out=norm)
            np.multiply(r, scale, out=traceless)

        return best

    def povms(self, coords: np.ndarray, dim: int) -> np.ndarray:
        """Stacks {(I + A) / 2, (I - A) / 2} per state from one restart's coordinates, shape (states, 2, dim, dim)."""
        observable = _einsum("...k,kij->...ij", coords.reshape(-1, dim * dim), self.bases[dim])
        eye = np.eye(dim)
        return np.stack([(eye + observable) / 2.0, (eye - observable) / 2.0], axis=-3)

    def random_binary_families(self, rng, count: int, n_states: int, dim: int) -> np.ndarray:
        """sign(H) of the Hermitian part H of a complex Gaussian matrix per state, shape (n_states * dim^2, count)."""
        re = rng.standard_normal((count, n_states, dim, dim))
        im = rng.standard_normal((count, n_states, dim, dim))
        if dim == 2:
            coords = _qubit_coordinates(re, im)
        else:
            g = re + 1j * im
            coords = _coordinates(self.bases[dim], (g + g.swapaxes(-1, -2).conj()) / 2.0)
        return self.best(coords.reshape(count, -1).T, dim)


def _seesaw_dims(shared: DensityMatrix, dims) -> tuple:
    if dims is not None:
        # int() would truncate 2.9, parse '2' and read True as 1
        if not isinstance(dims, (tuple, list)) or len(dims) != 2 or any(
                isinstance(d, bool) or not isinstance(d, (int, np.integer)) for d in dims):
            raise InvalidConfig(f"dims must be a tuple or list of two integers (da, db), got {dims!r}")
        da, db = int(dims[0]), int(dims[1])
    elif shared.dim == 4:
        da, db = 2, 2
    else:
        raise DimensionMismatch(
            f"cannot infer the bipartite split of a dim-{shared.dim} state; pass dims=(da, db)"
        )
    if da < 1 or db < 1:
        raise DimensionMismatch(f"dims ({da}, {db}) must each be at least 1")
    if da * db != shared.dim:
        raise DimensionMismatch(f"dims {da} * {db} do not match state dim {shared.dim}")
    return da, db


def seesaw_optimize(
    game: Game,
    shared: DensityMatrix,
    cfg: OptimizerConfig | None = None,
    *,
    dims: tuple | None = None,
    threads: int = 1,
):
    """Alternating exact best responses over general two-outcome POVMs.

    Starting from ``cfg.restarts`` random binary measurement families of
    player B (A's draws are taken too, and never read), each sweep replaces
    one player's family with its exact best response (the observable
    sign(K) of the payoff-gain operator K, whose outcome 0 projects onto the
    nonnegative eigenspace) while the other is held fixed, so the value
    sequence never decreases.  The search runs on real observable
    coordinates; only the best restart is turned into POVMs (I +- A) / 2.
    Returns ``(profile, value)`` for the best restart, value recomputed
    through the public behavior path.  ``threads`` must be 1.
    """
    _one_thread(threads)
    cfg = cfg or OptimizerConfig()
    _require_binary(game)
    da, db = _seesaw_dims(shared, dims)
    engine = _SeesawEngine(game, shared, (da, db))

    rng = np.random.default_rng(cfg.seed)
    # a restart is its B strategies, since the first half-sweep writes A's;
    # A's two Gaussian draws are still taken, so B's starts keep their place in the stream
    for _ in range(2):
        rng.standard_normal((cfg.restarts, len(game.states_a), da, da))
    ns = engine.random_binary_families(rng, cfg.restarts, len(game.states_b), db)

    m, n = engine.best_restart(ns, cfg)
    povms_a, povms_b = engine.povms(m, da), engine.povms(n, db)
    fam_a = MeasurementFamily({label: _unchecked(Measurement, operators=_frozen(povms_a[i], complex))
                               for i, label in enumerate(game.states_a)})
    fam_b = MeasurementFamily({label: _unchecked(Measurement, operators=_frozen(povms_b[i], complex))
                               for i, label in enumerate(game.states_b)})
    profile = QuantumStrategyProfile(shared, fam_a, fam_b)
    return profile, expected_payoff(game, behavior_from_profile(profile, game))
