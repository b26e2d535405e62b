"""Quantum strategies for coordination games and lower-bound optimizers.

A quantum strategy measures a shared entangled state with a per-state
measurement family and plays the observed outcome as the action (an
arbitrary outcome relabeling is supported but never searched over, since for
projective pairs a relabeling is the same as shifting the angle by pi/2).

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
both batch all restarts through vectorized linear algebra so that thousands
of restarts stay cheap: strategies are held coordinate-major, shape
(states * k, restarts), with the restarts on the last, contiguous axis, so
each step of a sweep is a few vector operations over all restarts rather
than many short loops over 2-8 coordinates.  Every sum runs in the order a
row-major (restarts, states, k) layout gets from numpy, so values agree to
the last bit with that layout, and so does the choice between restarts that
tie within rounding.  Every restart runs the configured number of sweeps,
and its result is its state after the last one, so the cost of a call is
set by the game's shape and the config, not by the payoff's values.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
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
from .games import BehaviorTable, CHSH_ANGLES_A, CHSH_ANGLES_B, Game, expected_payoff
from .quantum import (
    DensityMatrix,
    Measurement,
    MeasurementFamily,
    _outcome_tables,
    _trace_pairs,
    angle_family,
)

_GRID_CAP = 10**6


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
    """Shared state, a measurement family per player, and outcome-to-action maps."""

    shared_state: DensityMatrix
    family_a: MeasurementFamily
    family_b: MeasurementFamily
    outcome_to_action_a: tuple = None
    outcome_to_action_b: tuple = None

    def __post_init__(self):
        if self.shared_state.dim != self.family_a.dim * self.family_b.dim:
            raise DimensionMismatch(
                f"shared state dim {self.shared_state.dim} is not "
                f"{self.family_a.dim} * {self.family_b.dim}"
            )
        for attr, fam in (("outcome_to_action_a", self.family_a),
                          ("outcome_to_action_b", self.family_b)):
            mapping = getattr(self, attr)
            if mapping is None:
                mapping = tuple(range(fam.n_outcomes))
            else:
                mapping = tuple(mapping)
                if len(mapping) != fam.n_outcomes:
                    raise ValidationError(
                        f"{attr}: {len(mapping)} entries for {fam.n_outcomes} outcomes"
                    )
                for i, x in enumerate(mapping):
                    if isinstance(x, bool) or not isinstance(x, (int, np.integer)) or x < 0:
                        raise ValidationError(
                            f"{attr}: action {x!r} for outcome {i} is not a nonnegative integer"
                        )
                mapping = tuple(int(x) for x in mapping)
            object.__setattr__(self, attr, mapping)


@dataclass(frozen=True)
class OptimizerConfig:
    """Search settings shared by both optimizers.

    ``grid_points`` is the number of grid angles per player-A state in
    :func:`optimize_angles`; ``refine_iterations`` is the number of
    best-response sweeps every restart runs; ``restarts`` is the number of
    random starts; ``seed`` seeds the random starts.
    """

    grid_points: int = 24
    refine_iterations: int = 200
    restarts: int = 8
    seed: int = 0

    def __post_init__(self):
        # bool is an int subclass, but True is no count or seed
        for name in ("grid_points", "refine_iterations", "restarts"):
            v = getattr(self, name)
            if isinstance(v, bool) or not isinstance(v, (int, np.integer)) or v < 1:
                raise InvalidConfig(f"{name} must be an integer >= 1, got {v!r}")
        # numpy's generators take only nonnegative seeds
        if isinstance(self.seed, bool) or not isinstance(self.seed, (int, np.integer)) or self.seed < 0:
            raise InvalidConfig(f"seed must be an integer >= 0, got {self.seed!r}")


def behavior_from_profile(profile: QuantumStrategyProfile, game: Game) -> BehaviorTable:
    """Conditional action distribution induced by measuring and relabeling."""
    fam_a, fam_b = profile.family_a, profile.family_b
    if set(fam_a.labels) != set(game.states_a):
        raise IncompatibleLabels(
            f"family A labels {sorted(fam_a.labels)} vs game states {sorted(game.states_a)}"
        )
    if set(fam_b.labels) != set(game.states_b):
        raise IncompatibleLabels(
            f"family B labels {sorted(fam_b.labels)} vs game states {sorted(game.states_b)}"
        )
    map_a, map_b = profile.outcome_to_action_a, profile.outcome_to_action_b
    n_a, n_b = len(game.actions_a), len(game.actions_b)
    if any(x >= n_a for x in map_a) or any(x >= n_b for x in map_b):
        raise IncompatibleLabels("outcome-to-action map points outside the action set")

    tables = _outcome_tables(profile.shared_state, [fam_a[f] for f in game.states_a],
                             [fam_b[w] for w in game.states_b])
    q = np.zeros((n_a, n_b, len(game.states_a), len(game.states_b)))
    np.add.at(q, (np.array(map_a)[:, None], np.array(map_b)[None, :]),
              tables.transpose(2, 3, 0, 1))
    return BehaviorTable(q)


def _require_binary(game: Game):
    if len(game.actions_a) != 2 or len(game.actions_b) != 2:
        raise NonBinaryActions(
            f"need two actions per player, got {len(game.actions_a)} and {len(game.actions_b)}"
        )


def evaluate_qubit_strategy(game: Game, strategy: QubitAngleStrategy, shared: DensityMatrix) -> float:
    """Expected payoff of a projective-pair angle strategy on a two-qubit state."""
    _require_binary(game)
    if shared.dim != 4:
        raise DimensionMismatch(f"shared state dim {shared.dim}, expected 4 (qubit pair)")
    if set(strategy.angles_a) != set(game.states_a) or set(strategy.angles_b) != set(game.states_b):
        raise IncompatibleLabels("strategy angle labels do not match the game's states")
    fam_a = angle_family({f: strategy.angles_a[f] for f in game.states_a})
    fam_b = angle_family({w: strategy.angles_b[w] for w in game.states_b})
    profile = QuantumStrategyProfile(shared, fam_a, fam_b)
    return expected_payoff(game, behavior_from_profile(profile, game))


def _run_batches(worker, n_rows: int, threads: int):
    """Split ``n_rows`` independent restarts into contiguous slices across a thread pool, preserving order."""
    if threads <= 1 or n_rows <= 1:
        return [worker(slice(None))]
    chunks = np.array_split(np.arange(n_rows), min(threads, n_rows))
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(worker, [slice(c[0], c[-1] + 1) for c in chunks]))


_OUTCOME_SIGNS = np.array([1.0, -1.0])


def _signed_weights(game: Game):
    """The payoff's weights on the players' observables.

    A binary measurement {M0, M1} enters the payoff only through its
    observable A = M0 - M1, since M_a = (I + s_a A) / 2 with s = (+1, -1).
    So the payoff is w0 + sum_f wa_f <A_f> + sum_w wb_w <B_w>
    + sum_fw wab_fw <A_f x B_w>; returns ``(w0, wa, wb, wab)``, the
    prior-weighted payoff contracted with the outcome signs.
    """
    weighted = game.payoff * np.outer(game.prior_a, game.prior_b) / 4.0
    return (float(weighted.sum()),
            np.einsum("a,abfw->f", _OUTCOME_SIGNS, weighted),
            np.einsum("b,abfw->w", _OUTCOME_SIGNS, weighted),
            np.einsum("a,b,abfw->fw", _OUTCOME_SIGNS, _OUTCOME_SIGNS, weighted))


def _affine(x: np.ndarray, matrix: np.ndarray, offset: np.ndarray) -> np.ndarray:
    """offset + matrix @ x for x of shape (coordinates, batch).

    numpy's own einsum loop rather than a BLAS product, whose rounding can
    depend on how many columns share the batch.  Each entry accumulates
    matrix[l, k] x[k, b] in k order, as long as the batch axis exists: einsum
    drops a length-1 axis and then sums a lone column's coordinates in
    another order, so a lone column is swept as two equal ones.
    """
    if x.shape[1] == 1:
        return _affine(np.repeat(x, 2, axis=1), matrix, offset)[:, :1]
    return offset + np.einsum("lk,kb->lb", matrix, x)


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
    its operator stacks to ``set_terms``, which sets ``w0``, the local terms
    ``local_a`` and ``local_b`` (columns) and the couplings ``to_a`` and
    ``to_b``: with B's strategies y fixed, the payoff is
    w0 + <local_a + to_a @ y, x> in A's, and likewise for B.  ``best(gain, dim)`` returns the strategies of a
    player of dimension ``dim_a`` or ``dim_b`` that maximize <gain, x>.
    Every operation acts on each column alone and sums in a fixed order, so
    a restart's trajectory never depends on the rest of its batch, and
    equals the one a row-major (batch, states, k) layout gets from numpy
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
        self.local_a = np.kron(wa, table[1:, 0])[:, None]
        self.local_b = np.kron(wb, table[0, 1:])[:, None]
        # C order whatever the state counts: einsum's summation order follows the layout
        self.to_a = np.ascontiguousarray(np.kron(wab, corr))
        self.to_b = np.ascontiguousarray(np.kron(wab.T, corr.T))

    def respond_a(self, ns: np.ndarray) -> np.ndarray:
        return self.best(_affine(ns, self.to_a, self.local_a), self.dim_a)

    def respond_b(self, ms: np.ndarray) -> np.ndarray:
        return self.best(_affine(ms, self.to_b, self.local_b), self.dim_b)

    def values(self, ms: np.ndarray, ns: np.ndarray) -> np.ndarray:
        """Payoff of every column."""
        return self.w0 + _inner(ms, self.local_a) + _inner(ns, _affine(ms, self.to_b, self.local_b))

    def sweep(self, ms: np.ndarray, ns: np.ndarray, sweeps: int):
        """Run ``sweeps`` alternating best responses, A's then B's, over the whole batch.

        Every restart runs every sweep, so a call costs the same for a given
        batch shape and ``sweeps`` however fast its restarts converge.
        Returns the final strategies and their values; the inputs are not
        written to.
        """
        for _ in range(sweeps):
            ms = self.respond_a(ns)
            ns = self.respond_b(ms)
        return ms, ns, self.values(ms, ns)

    def best_restart(self, ms: np.ndarray, ns: np.ndarray, cfg: OptimizerConfig, threads: int):
        """Sweep every restart, split across ``threads``; the best column's strategies.

        Ties go to the earliest restart.
        """
        def worker(rows):
            return self.sweep(np.ascontiguousarray(ms[:, rows]), np.ascontiguousarray(ns[:, rows]),
                              cfg.refine_iterations)

        outputs = _run_batches(worker, ms.shape[1], threads)
        final_ms, final_ns, values = (np.concatenate(parts, axis=-1) for parts in zip(*outputs))
        best = int(np.argmax(values))
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


_E0 = np.array([[1.0], [0.0]])


def _normalized(d: np.ndarray) -> np.ndarray:
    """d / |d| along axis 1 of (states, 2, batch); a zero vector (every direction optimal) maps to (1, 0)."""
    norm = np.sqrt((d * d).sum(axis=1, keepdims=True))
    nonzero = norm > 0.0
    return np.where(nonzero, d / np.where(nonzero, norm, 1.0), _E0)


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

    def best(self, gain: np.ndarray, dim: int) -> np.ndarray:
        return _normalized(gain.reshape(-1, dim, gain.shape[1])).reshape(gain.shape)


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
    (values never decrease) for all ``cfg.refine_iterations`` sweeps.

    Returns ``(best_strategy, value)`` where the value is recomputed through
    :func:`evaluate_qubit_strategy` on the winning angles; ties go to the
    earliest start.
    """
    cfg = cfg or OptimizerConfig()
    _require_binary(game)
    if shared.dim != 4:
        raise DimensionMismatch(f"shared state dim {shared.dim}, expected 4 (qubit pair)")
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
    grid_best = grid[int(np.argmax(grid_values))]

    rng = np.random.default_rng(cfg.seed)
    starts = np.vstack([
        grid_best[None, :],
        rng.uniform(0.0, math.pi, size=(cfg.restarts, n_phi)),
    ])

    us = _unit_vectors(starts)
    u, v = (x.reshape(-1, 2) for x in engine.best_restart(us, engine.respond_b(us), cfg, threads))
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
    return np.einsum("kji,...ij->...k", basis, matrices).real


def _qubit_sign(gain: np.ndarray) -> np.ndarray:
    """Coordinates of sign(K) for K = (t I + r . sigma) / sqrt 2, given (t, r) on axis 1 of (states, 4, batch).

    K has eigenvalues (t +- |r|) / sqrt 2; eigenvalues >= -TOL_PSD take the
    sign +1, so sign(K) is I when both do, -I when neither does, and
    r / |r| . sigma otherwise, where |r| > 0.
    """
    t, r = gain[:, 0], gain[:, 1:]
    norm = np.sqrt(np.add.reduce(r * r, axis=1))
    cut = -_SQRT2 * tol.TOL_PSD
    both, neither = t - norm >= cut, t + norm < cut
    identity = both | neither
    out = np.empty_like(gain)
    if np.count_nonzero(identity):
        out[:, 0] = _SQRT2 * (both.astype(float) - neither)
        scale = _SQRT2 / np.where(identity, np.inf, norm)
    else:  # every gain off the identity line, the usual case: no masking
        out[:, 0] = 0.0
        scale = _SQRT2 / norm
    np.multiply(r, scale[:, None], out=out[:, 1:])
    return out


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

    def best(self, gain: np.ndarray, dim: int) -> np.ndarray:
        batch = gain.shape[1]
        if dim == 2:
            return _qubit_sign(gain.reshape(-1, 4, batch)).reshape(gain.shape)
        # eigh wants each matrix's coordinates last, so the rows go restart-major and back
        basis = self.bases[dim]
        rows = np.ascontiguousarray(gain.reshape(-1, dim * dim, batch).transpose(2, 0, 1))
        w, u = np.linalg.eigh(np.einsum("...k,kij->...ij", rows, basis))
        signs = np.where(w >= -tol.TOL_PSD, 1.0, -1.0)
        coords = _coordinates(basis, np.einsum("...ie,...e,...je->...ij", u, signs, np.conj(u)))
        return np.ascontiguousarray(coords.transpose(1, 2, 0)).reshape(gain.shape)

    def povms(self, coords: np.ndarray, dim: int) -> np.ndarray:
        """Stacks {(I + A) / 2, (I - A) / 2} per state from one restart's coordinates, shape (states, 2, dim, dim)."""
        observable = np.einsum("...k,kij->...ij", coords.reshape(-1, dim * dim), self.bases[dim])
        eye = np.eye(dim)
        return np.stack([(eye + observable) / 2.0, (eye - observable) / 2.0], axis=-3)

    def random_binary_families(self, rng, count: int, n_states: int, dim: int) -> np.ndarray:
        g = rng.standard_normal((count, n_states, dim, dim)) \
            + 1j * rng.standard_normal((count, n_states, dim, dim))
        hermitian = (g + np.conj(np.swapaxes(g, -1, -2))) / 2.0
        coords = _coordinates(self.bases[dim], hermitian).reshape(count, -1)
        return self.best(np.ascontiguousarray(coords.T), dim)


def _seesaw_dims(shared: DensityMatrix, dims) -> tuple:
    if dims is not None:
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

    Starting from ``cfg.restarts`` random binary measurement families, each
    sweep replaces one player's family with its exact best response (the
    observable sign(K) of the payoff-gain operator K, whose outcome 0 projects
    onto the nonnegative eigenspace) while the other is held fixed, so the
    value sequence never decreases.  The search runs on real observable
    coordinates; only the best restart is turned into POVMs (I +- A) / 2.
    Returns ``(profile, value)`` for the best restart, value recomputed
    through the public behavior path.
    """
    cfg = cfg or OptimizerConfig()
    _require_binary(game)
    da, db = _seesaw_dims(shared, dims)
    engine = _SeesawEngine(game, shared, (da, db))

    rng = np.random.default_rng(cfg.seed)
    ms = engine.random_binary_families(rng, cfg.restarts, len(game.states_a), da)
    ns = engine.random_binary_families(rng, cfg.restarts, len(game.states_b), db)

    m, n = engine.best_restart(ms, ns, cfg, threads)
    povms_a, povms_b = engine.povms(m, da), engine.povms(n, db)
    fam_a = MeasurementFamily({
        label: Measurement(povms_a[i]) for i, label in enumerate(game.states_a)
    })
    fam_b = MeasurementFamily({
        label: Measurement(povms_b[i]) for i, label in enumerate(game.states_b)
    })
    profile = QuantumStrategyProfile(shared, fam_a, fam_b)
    return profile, expected_payoff(game, behavior_from_profile(profile, game))
