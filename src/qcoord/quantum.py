"""Dense complex linear algebra for quantum states and finite measurements.

States are density matrices (Hermitian, unit trace, positive semidefinite)
and measurements are finite POVMs (nonnegative operators summing to
identity).  A ``Measurement`` holds its operators as one read-only complex
array of shape (outcomes, d, d).  Each object is checked once, where outside
data enters: the public constructors run every check, while the arrays this
module and the optimizers build themselves (projective pairs, see-saw POVMs
(I +- A) / 2, normalized pure states, I / d) go through the private
``_of`` builders, which store the same read-only copy and run no check.
That rule holds only for checks that return their input unchanged; a check
that clamps or renormalizes (priors, probability tables, behavior tables,
signal distributions) runs on every construction, because skipping it
would change bits.
Joint outcome probabilities and the optimizers' expectations all follow
the trace rule tr(rho (A ox B)), computed by one contraction,
``_trace_pairs``, over a stack of A's and a stack of B's.  Storage is dense
complex128 and dimensions are capped at 64, which is far beyond the
two-qubit systems this package actually analyzes.

All functions are pure and all returned objects are immutable, so values may
be shared freely across threads.
"""

from __future__ import annotations

import math
import numbers
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
from .games import _checked_probabilities, _einsum


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


def _check_dim(dim: int):
    if dim > tol.DIM_CAP:
        raise DimensionCapExceeded(f"dimension {dim} exceeds the dense cap {tol.DIM_CAP}")


def _check_unit_trace(matrix: np.ndarray):
    tr_dev = abs(complex(matrix.trace()) - 1.0)
    if tr_dev > tol.TOL_TRACE:
        raise ValidationError(f"density matrix trace differs from 1 by {tr_dev:.3e}")


def _frozen(values) -> np.ndarray:
    """A read-only C-ordered complex copy: what a checked constructor stores."""
    arr = np.array(values, dtype=complex, order="C")
    arr.setflags(write=False)
    return arr


def _hermitian_check(stack: np.ndarray) -> tuple:
    """Largest entry of |H - H^dagger| and smallest eigenvalue of (H + H^dagger)/2 over a stack.

    The adjoint is built once and the eigenvalues come from one LAPACK
    call.  Forcing the Hermitian average first strips the asymmetric part
    of any floating noise, so the solver sees an exactly Hermitian input.
    A stack of 0x0 matrices has deviation 0 and lowest eigenvalue inf.
    """
    adjoint = stack.swapaxes(-1, -2).conj()
    deviation = float(np.abs(stack - adjoint).max(initial=0.0))
    # each matrix's eigenvalues come ascending, so the least of all is the least first one
    lowest = float(np.linalg.eigvalsh((stack + adjoint) / 2.0).min(initial=math.inf))
    return deviation, lowest


@dataclass(frozen=True)
class DensityMatrix:
    """A validated quantum state.

    Construction fails unless the matrix is square, Hermitian within
    ``TOL_HERM``, unit trace within ``TOL_TRACE`` and has smallest
    eigenvalue >= -``TOL_PSD``.  Those checks run on outside input only;
    ``pure_state`` and ``maximally_mixed`` check their own arguments and
    build through ``_of``, since their matrices are states by construction.
    """

    matrix: np.ndarray

    def __post_init__(self):
        m = as_complex_matrix(self.matrix, name="density matrix")
        n, k = m.shape
        if n != k:
            raise ValidationError(f"density matrix must be square, got {n}x{k}")
        _check_dim(n)
        dev, lowest = _hermitian_check(m)
        if dev > tol.TOL_HERM:
            raise ValidationError(f"density matrix not Hermitian (deviation {dev:.3e})")
        _check_unit_trace(m)
        if lowest < -tol.TOL_PSD:
            raise ValidationError(f"density matrix has eigenvalue {lowest:.3e} below -{tol.TOL_PSD}")
        object.__setattr__(self, "matrix", _frozen(m))

    @classmethod
    def _of(cls, matrix) -> "DensityMatrix":
        """A state from a matrix the package built to be one: stored as the constructor stores it, with no check."""
        state = object.__new__(cls)
        object.__setattr__(state, "matrix", _frozen(matrix))
        return state

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def _operator_stack(operators) -> np.ndarray:
    """One read-only (outcomes, d, d) stack of the operators, checked as a POVM.

    Each operator is coerced once; an empty collection, a first operator
    larger than ``DIM_CAP``, operators of unequal shapes or of size 0x0, or
    a stack off the POVM requirements raise.
    """
    ops = [as_complex_matrix(op, name=f"operator {i}") for i, op in enumerate(operators)]
    if not ops:
        raise ValidationError("a measurement needs at least one outcome operator")
    dim = ops[0].shape[0]
    _check_dim(dim)
    for i, op in enumerate(ops):
        if op.shape != (dim, dim):
            raise ValidationError(f"operator {i} has shape {op.shape}, expected ({dim}, {dim})")
    if dim == 0:
        raise ValidationError("operators are 0x0; a measurement needs dimension at least 1")
    stack = _frozen(ops)
    herm_dev, min_eig = _hermitian_check(stack)
    # the sum minus the identity, to the bit: subtracting 0 off the diagonal changes nothing
    total = stack.sum(axis=0)
    total.reshape(-1)[::dim + 1] -= 1.0
    comp_dev = float(np.abs(total).max())
    if herm_dev > tol.TOL_HERM or min_eig < -tol.TOL_PSD or comp_dev > tol.TOL_POVM:
        raise ValidationError(
            "invalid POVM: "
            f"hermiticity deviation {herm_dev:.3e}, "
            f"min eigenvalue {min_eig:.3e}, "
            f"completeness deviation {comp_dev:.3e}"
        )
    return stack


@dataclass(frozen=True)
class Measurement:
    """A finite POVM: one nonnegative operator per outcome, summing to identity.

    ``operators`` is one read-only complex array of shape (outcomes, d, d);
    it may be built from any iterable of d x d matrices, and is checked as
    a POVM there.  ``projective_pair`` and the see-saw build their stacks
    as POVMs and store them through ``_of``, which skips that check.
    """

    operators: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "operators", _operator_stack(self.operators))

    @classmethod
    def _of(cls, stack) -> "Measurement":
        """A measurement from an (outcomes, d, d) stack the package built to be a POVM, stored with no check."""
        measurement = object.__new__(cls)
        object.__setattr__(measurement, "operators", _frozen(stack))
        return measurement

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
    """Projector onto the given vector, normalized first.

    The projector is Hermitian and positive by construction, so only its
    trace is checked: it is off 1 when the squared norm underflows.
    """
    v = np.asarray(vector, dtype=complex).reshape(-1)
    if not np.isfinite(v).all():
        raise ValidationError("state vector contains non-finite entries")
    _check_dim(v.size)
    with np.errstate(over="ignore"):
        norm = float(np.linalg.norm(v))
    if norm == 0.0:
        raise ZeroVector("cannot normalize the zero vector")
    if norm == math.inf:
        raise ValidationError("state vector norm overflows a float")
    v = v / norm
    projector = v[:, None] * v.conj()
    _check_unit_trace(projector)
    return DensityMatrix._of(projector)


SINGLET_VECTOR = np.array([0.0, 1.0, -1.0, 0.0], dtype=complex) / math.sqrt(2.0)
SINGLET_VECTOR.setflags(write=False)


def singlet_state() -> DensityMatrix:
    """Projector onto (|01> - |10>) / sqrt(2)."""
    return pure_state(SINGLET_VECTOR)


def maximally_mixed(dim: int = 2) -> DensityMatrix:
    """I / dim."""
    if isinstance(dim, bool) or not isinstance(dim, numbers.Integral) or dim < 1:
        raise ValidationError(f"dim must be an integer of at least 1, got {dim!r}")
    _check_dim(dim)
    return DensityMatrix._of(np.eye(dim, dtype=complex) / dim)


def projective_pair(theta: float) -> Measurement:
    """Two-outcome qubit measurement projecting onto the rotated basis at angle theta."""
    theta = float(theta)
    if not math.isfinite(theta):
        raise ValidationError("measurement angle must be finite")
    c, s = math.cos(theta), math.sin(theta)
    # the orthonormal pair (cos t, sin t) and (-sin t, cos t)
    vectors = np.array([[c, s], [-s, c]], dtype=complex)
    return Measurement._of(vectors[:, :, None] * vectors[:, None, :].conj())


def angle_family(angles: Mapping[str, float]) -> MeasurementFamily:
    """Measurement family of projective pairs, one angle per state label."""
    return MeasurementFamily({label: projective_pair(theta) for label, theta in angles.items()})


def _trace_pairs(rho: np.ndarray, first: np.ndarray, second: np.ndarray) -> np.ndarray:
    """Re tr(rho (A_i ox B_j)) for every pair of operators from the stacks A and B.

    The trace rule's one contraction: every probability and expectation of
    a product operator in this package is computed here.
    """
    da, db = first.shape[-1], second.shape[-1]
    # tr(rho (A ox B)) = sum rho[(a,c),(b,d)] A[b,a] B[d,c]
    blocks = rho.reshape(da, db, da, db)
    return _einsum("acbd,iba,jdc->ij", blocks, first, second).real


def _outcome_tables(rho: DensityMatrix, first: Sequence[Measurement],
                    second: Sequence[Measurement]) -> np.ndarray:
    """Joint outcome tables p[f, w, s, t] = tr(rho (M_{s|f} ox N_{t|w})).

    ``first`` and ``second`` are each player's choices, each with one
    outcome count; the table of every choice pair is checked, clamped and
    renormalized on its own.
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
    flat, masses = _checked_probabilities(raw.reshape(n_f, n_w, n_s * n_t), -1,
                                          "joint distribution")
    return (flat / masses).reshape(n_f, n_w, n_s, n_t)


def joint_distribution(rho: DensityMatrix, m: Measurement, n: Measurement) -> np.ndarray:
    """Joint outcome probabilities p[i, j] = tr(rho (M_i ox N_j))."""
    return _outcome_tables(rho, [m], [n])[0, 0]


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
    # trace out the first party
    rho_second = _einsum("ikil->kl", rho.matrix.reshape(dim_first, second.dim, dim_first, second.dim))
    marginal = np.array([float((rho_second @ nj).trace().real) for nj in second.operators])

    worst = 0.0
    for m in choices:
        summed = _trace_pairs(rho.matrix, m.operators, second.operators).sum(axis=0)
        worst = max(worst, float(np.abs(summed - marginal).max()))
    return NoSignallingReport(
        max_deviation=worst,
        tolerance=tolerance,
        passed=worst <= tolerance,
        marginal=tuple(float(x) for x in marginal),
    )
