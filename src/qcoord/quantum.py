"""Dense complex linear algebra for quantum states and finite measurements.

States are density matrices (Hermitian, unit trace, positive semidefinite)
and measurements are finite POVMs (nonnegative operators summing to
identity).  A ``Measurement`` holds its operators as one read-only complex
array of shape (outcomes, d, d), coerced and checked once when it is built.
Joint outcome probabilities and the optimizers' expectations all follow
the trace rule tr(rho (A ox B)), computed by one contraction,
``_trace_pairs``, over a stack of A's and a stack of B's.  Storage is dense
complex128 and dimensions are capped at 64, which is far beyond the
two-qubit systems this package actually analyzes.

Convention note: the second basis matrix ``PAULI_2`` is fixed here as
``[[0, i], [-i, 0]]``, the mirror image of the textbook sigma_y.  The choice
only reflects the Bloch ball through a2 -> -a2 and changes no probability.

All functions are pure and all returned objects are immutable, so values may
be shared freely across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import MappingProxyType
from typing import Mapping, Sequence

import numpy as np

from . import tolerances as tol
from .errors import (
    DimensionCapExceeded,
    DimensionMismatch,
    ValidationError,
    ZeroVector,
)

PAULI_1 = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
PAULI_2 = np.array([[0.0, 1.0j], [-1.0j, 0.0]], dtype=complex)
PAULI_3 = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)

for _p in (PAULI_1, PAULI_2, PAULI_3):
    _p.setflags(write=False)
del _p


def as_complex_matrix(values, *, name: str = "matrix") -> np.ndarray:
    """Coerce to a finite 2-d complex array; reject NaN and Inf entries."""
    try:
        arr = np.asarray(values, dtype=complex)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"{name}: not coercible to a complex matrix: {exc}") from None
    if arr.ndim != 2:
        raise ValidationError(f"{name}: expected 2 dimensions, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValidationError(f"{name}: contains non-finite entries")
    return arr


def _adjoint(stack: np.ndarray) -> np.ndarray:
    return np.swapaxes(stack, -1, -2).conj()


def _hermiticity_deviation(stack: np.ndarray) -> float:
    """Largest entry of |H - H^dagger| over a stack of square matrices."""
    return float(np.max(np.abs(stack - _adjoint(stack)), initial=0.0))


def _lowest_eigenvalue(stack: np.ndarray) -> float:
    """Smallest eigenvalue of (H + H^dagger)/2 over a stack, from one LAPACK call.

    Forcing the Hermitian average first strips the asymmetric part of any
    floating noise, so the solver sees an exactly Hermitian input.
    """
    return float(np.linalg.eigvalsh((stack + _adjoint(stack)) / 2.0)[..., 0].min())


@dataclass(frozen=True)
class DensityMatrix:
    """A validated quantum state.

    Construction fails unless the matrix is square, Hermitian within
    ``TOL_HERM``, unit trace within ``TOL_TRACE`` and has smallest
    eigenvalue >= -``TOL_PSD``.
    """

    matrix: np.ndarray

    def __post_init__(self):
        m = as_complex_matrix(self.matrix, name="density matrix")
        n, k = m.shape
        if n != k:
            raise ValidationError(f"density matrix must be square, got {n}x{k}")
        if n > tol.DIM_CAP:
            raise DimensionCapExceeded(f"dimension {n} exceeds the dense cap {tol.DIM_CAP}")
        dev = _hermiticity_deviation(m)
        if dev > tol.TOL_HERM:
            raise ValidationError(f"density matrix not Hermitian (deviation {dev:.3e})")
        tr_dev = abs(complex(np.trace(m)) - 1.0)
        if tr_dev > tol.TOL_TRACE:
            raise ValidationError(f"density matrix trace differs from 1 by {tr_dev:.3e}")
        lowest = _lowest_eigenvalue(m)
        if lowest < -tol.TOL_PSD:
            raise ValidationError(f"density matrix has eigenvalue {lowest:.3e} below -{tol.TOL_PSD}")
        m = m.copy()
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def eigenvalues(self) -> np.ndarray:
        """Ascending eigenvalues of the Hermitian part of the matrix."""
        return np.linalg.eigvalsh((self.matrix + _adjoint(self.matrix)) / 2.0)


@dataclass(frozen=True)
class PovmReport:
    """Validation report for a candidate measurement."""

    hermiticity_deviation: float
    min_eigenvalue: float
    completeness_deviation: float
    passed: bool


def _operator_stack(operators) -> tuple:
    """One read-only (outcomes, d, d) stack of the operators and its POVM report.

    Each operator is coerced once; an empty collection, a first operator
    larger than ``DIM_CAP`` or operators of unequal shapes raise.
    """
    ops = [as_complex_matrix(op, name=f"operator {i}") for i, op in enumerate(operators)]
    if not ops:
        raise ValidationError("a measurement needs at least one outcome operator")
    dim = ops[0].shape[0]
    if dim > tol.DIM_CAP:
        raise DimensionCapExceeded(f"dimension {dim} exceeds the dense cap {tol.DIM_CAP}")
    for i, op in enumerate(ops):
        if op.shape != (dim, dim):
            raise ValidationError(f"operator {i} has shape {op.shape}, expected ({dim}, {dim})")
    stack = np.array(ops)
    stack.setflags(write=False)
    herm_dev = _hermiticity_deviation(stack)
    min_eig = _lowest_eigenvalue(stack)
    comp_dev = float(np.max(np.abs(stack.sum(axis=0) - np.eye(dim))))
    passed = (
        herm_dev <= tol.TOL_HERM
        and min_eig >= -tol.TOL_PSD
        and comp_dev <= tol.TOL_POVM
    )
    return stack, PovmReport(herm_dev, min_eig, comp_dev, passed)


def validate_povm(operators) -> PovmReport:
    """Check a collection of operators against the POVM requirements.

    Accepts a ``Measurement`` or any iterable of square matrices of one
    common dimension, at most ``DIM_CAP``.  Never raises for a well-shaped
    but invalid collection; failures are carried in the report.
    """
    if isinstance(operators, Measurement):
        operators = operators.operators
    return _operator_stack(operators)[1]


@dataclass(frozen=True)
class Measurement:
    """A finite POVM: one nonnegative operator per outcome, summing to identity.

    ``operators`` is one read-only complex array of shape (outcomes, d, d);
    it may be built from any iterable of d x d matrices.
    """

    operators: np.ndarray

    def __post_init__(self):
        stack, report = _operator_stack(self.operators)
        if not report.passed:
            raise ValidationError(
                "invalid POVM: "
                f"hermiticity deviation {report.hermiticity_deviation:.3e}, "
                f"min eigenvalue {report.min_eigenvalue:.3e}, "
                f"completeness deviation {report.completeness_deviation:.3e}"
            )
        object.__setattr__(self, "operators", stack)

    @property
    def dim(self) -> int:
        return self.operators.shape[1]

    @property
    def n_outcomes(self) -> int:
        return self.operators.shape[0]


@dataclass(frozen=True)
class MeasurementFamily:
    """One measurement per private state of nature; a player's measurement plan.

    The insertion order of ``measurements`` fixes the state ordering used by
    every tensor built from the family.
    """

    measurements: Mapping[str, Measurement]

    def __post_init__(self):
        items = dict(self.measurements)
        if not items:
            raise ValidationError("a measurement family needs at least one entry")
        dims = {m.dim for m in items.values()}
        outs = {m.n_outcomes for m in items.values()}
        if len(dims) != 1:
            raise ValidationError(f"family mixes dimensions {sorted(dims)}")
        if len(outs) != 1:
            raise ValidationError(f"family mixes outcome counts {sorted(outs)}")
        object.__setattr__(self, "measurements", MappingProxyType(items))

    @property
    def labels(self) -> tuple:
        return tuple(self.measurements.keys())

    @property
    def dim(self) -> int:
        return next(iter(self.measurements.values())).dim

    @property
    def n_outcomes(self) -> int:
        return next(iter(self.measurements.values())).n_outcomes

    def __getitem__(self, label) -> Measurement:
        return self.measurements[label]


def pure_state(vector) -> DensityMatrix:
    """Projector onto the given vector, normalized first."""
    v = np.asarray(vector, dtype=complex).reshape(-1)
    if not np.isfinite(v).all():
        raise ValidationError("state vector contains non-finite entries")
    norm = float(np.linalg.norm(v))
    if norm == 0.0:
        raise ZeroVector("cannot normalize the zero vector")
    v = v / norm
    return DensityMatrix(np.outer(v, v.conj()))


SINGLET_VECTOR = np.array([0.0, 1.0, -1.0, 0.0], dtype=complex) / math.sqrt(2.0)
SINGLET_VECTOR.setflags(write=False)


def singlet_state() -> DensityMatrix:
    """Projector onto (|01> - |10>) / sqrt(2)."""
    return pure_state(SINGLET_VECTOR)


def maximally_mixed(dim: int = 2) -> DensityMatrix:
    return DensityMatrix(np.eye(dim, dtype=complex) / dim)


def measurement_vectors(theta: float) -> tuple:
    """The orthonormal pair (cos t, sin t) and (-sin t, cos t)."""
    c, s = math.cos(theta), math.sin(theta)
    return np.array([c, s], dtype=complex), np.array([-s, c], dtype=complex)


def projective_pair(theta: float) -> Measurement:
    """Two-outcome qubit measurement projecting onto the rotated basis at angle theta."""
    theta = float(theta)
    if not math.isfinite(theta):
        raise ValidationError("measurement angle must be finite")
    vectors = np.array(measurement_vectors(theta))
    return Measurement(vectors[:, :, None] * vectors[:, None, :].conj())


def angle_family(angles: Mapping[str, float]) -> MeasurementFamily:
    """Measurement family of projective pairs, one angle per state label."""
    return MeasurementFamily({label: projective_pair(theta) for label, theta in angles.items()})


def _clean_probabilities(raw: np.ndarray, *, name: str) -> np.ndarray:
    """Clamp benign negative noise to zero and renormalize each row of the last axis.

    Negativity beyond TOL_PSD or a row's total mass off by more than TOL_PROB
    means the inputs were not a valid state/measurement pair and is an error.
    """
    low = float(raw.min())
    if low < -tol.TOL_PSD:
        raise ValidationError(f"{name}: probability {low:.3e} below -{tol.TOL_PSD}")
    cleaned = np.clip(raw, 0.0, None)
    totals = cleaned.sum(axis=-1, keepdims=True)
    off = np.abs(totals - 1.0)
    if off.max() > tol.TOL_PROB:
        total = float(totals.flat[int(np.argmax(off))])
        raise ValidationError(f"{name}: probabilities sum to {total!r}, not 1")
    return cleaned / totals


def _trace_pairs(rho: np.ndarray, first: np.ndarray, second: np.ndarray) -> np.ndarray:
    """Re tr(rho (A_i ox B_j)) for every pair of operators from the stacks A and B.

    The trace rule's one contraction: every probability and expectation of
    a product operator in this package is computed here.
    """
    da, db = first.shape[-1], second.shape[-1]
    # tr(rho (A ox B)) = sum rho[(a,c),(b,d)] A[b,a] B[d,c]
    blocks = rho.reshape(da, db, da, db)
    return np.einsum("acbd,iba,jdc->ij", blocks, first, second).real


def _outcome_tables(rho: DensityMatrix, first: Sequence[Measurement],
                    second: Sequence[Measurement]) -> np.ndarray:
    """Joint outcome tables p[f, w, s, t] = tr(rho (M_{s|f} ox N_{t|w})).

    ``first`` and ``second`` are each player's choices, each with one
    outcome count; the table of every choice pair is cleaned on its own.
    """
    m, n = first[0], second[0]
    if rho.dim != m.dim * n.dim:
        raise DimensionMismatch(
            f"state dim {rho.dim} is not the product of measurement dims {m.dim} and {n.dim}"
        )
    n_f, n_w, n_s, n_t = len(first), len(second), m.n_outcomes, n.n_outcomes
    ops_a = np.concatenate([c.operators for c in first])
    ops_b = np.concatenate([c.operators for c in second])
    raw = _trace_pairs(rho.matrix, ops_a, ops_b).reshape(n_f, n_s, n_w, n_t).transpose(0, 2, 1, 3)
    # one contiguous row per (f, w), so its total is summed as one pair's flat table would be
    flat = _clean_probabilities(raw.reshape(n_f, n_w, n_s * n_t), name="joint distribution")
    return flat.reshape(n_f, n_w, n_s, n_t)


def joint_distribution(rho: DensityMatrix, m: Measurement, n: Measurement) -> np.ndarray:
    """Joint outcome probabilities p[i, j] = tr(rho (M_i ox N_j))."""
    return _outcome_tables(rho, [m], [n])[0, 0]


def partial_trace(rho: DensityMatrix, dim_first: int, dim_second: int, keep: str = "first") -> DensityMatrix:
    """Trace out one subsystem of a bipartite state."""
    if rho.dim != dim_first * dim_second:
        raise DimensionMismatch(
            f"state dim {rho.dim} is not {dim_first} * {dim_second}"
        )
    if keep not in ("first", "second"):
        raise ValidationError(f"keep must be 'first' or 'second', got {keep!r}")
    blocks = rho.matrix.reshape(dim_first, dim_second, dim_first, dim_second)
    if keep == "first":
        reduced = np.einsum("ikjk->ij", blocks)
    else:
        reduced = np.einsum("ikil->kl", blocks)
    return DensityMatrix(reduced)


@dataclass(frozen=True)
class NoSignallingReport:
    """Largest gap between the second party's marginal and its partial-trace value."""

    max_deviation: float
    tolerance: float
    passed: bool
    marginal: tuple


def no_signalling_check(
    rho: DensityMatrix,
    first_choices: Sequence[Measurement],
    second: Measurement,
    *,
    tolerance: float = tol.TOL_NOSIG,
) -> NoSignallingReport:
    """Compare the second party's marginal across every first-party choice.

    For each outcome j of the fixed measurement and each choice M the gap
    |sum_i tr(rho M_i ox N_j) - tr(rho_2 N_j)| is computed; the report holds
    the maximum.  For valid inputs this is zero up to rounding regardless of
    the state shared, which is exactly why the shared state cannot carry a
    message.
    """
    choices = list(first_choices)
    if not choices:
        raise ValidationError("need at least one first-party measurement choice")
    dim_first = choices[0].dim
    for m in choices:
        if m.dim != dim_first:
            raise DimensionMismatch("first-party choices have mixed dimensions")
    if rho.dim != dim_first * second.dim:
        raise DimensionMismatch(
            f"state dim {rho.dim} is not {dim_first} * {second.dim}"
        )
    rho_second = partial_trace(rho, dim_first, second.dim, keep="second").matrix
    marginal = np.array([float(np.trace(rho_second @ nj).real) for nj in second.operators])

    worst = 0.0
    for m in choices:
        summed = _trace_pairs(rho.matrix, m.operators, second.operators).sum(axis=0)
        worst = max(worst, float(np.max(np.abs(summed - marginal))))
    return NoSignallingReport(
        max_deviation=worst,
        tolerance=tolerance,
        passed=worst <= tolerance,
        marginal=tuple(float(x) for x in marginal),
    )
