import math

import numpy as np
import pytest

from qcoord import (
    DensityMatrix,
    DimensionCapExceeded,
    DimensionMismatch,
    Measurement,
    OptimizerConfig,
    ValidationError,
    ZeroVector,
    joint_distribution,
    maximally_mixed,
    no_signalling_check,
    projective_pair,
    pure_state,
    seesaw_optimize,
    singlet_state,
)
from qcoord.quantum import SINGLET_VECTOR, _operator_stack
from sampling import (
    complex_gaussian,
    random_density_matrix,
    random_game,
    random_povm,
    random_projective_pair,
    random_pure_density,
)
from conftest import singlet_table


PAULIS = np.array([[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])


def _bloch_state(a):
    """Qubit state (I + a1 sigma_x + a2 sigma_y + a3 sigma_z) / 2."""
    return DensityMatrix(0.5 * (np.eye(2) + np.einsum("i,ijk->jk", a, PAULIS)))


def _local_distribution(rho, m):
    """Outcome probabilities tr(M_i rho), as a joint distribution with a trivial second system."""
    return joint_distribution(rho, m, Measurement((np.eye(1),)))[:, 0]


def test_bloch_center_is_maximally_mixed():
    rho = _bloch_state((0.0, 0.0, 0.0))
    assert np.allclose(rho.matrix, np.diag([0.5, 0.5]))


def test_bloch_north_pole_is_pure():
    rho = _bloch_state((0.0, 0.0, 1.0))
    assert np.allclose(rho.matrix, np.diag([1.0, 0.0]))


def test_bloch_norm_exceeded():
    # outside the unit ball one eigenvalue (1 - |a|) / 2 is negative
    for a in ((0.6, 0.8, 0.1), (1.0, 0.1, 0.0)):
        with pytest.raises(ValidationError):
            _bloch_state(a)


def test_bloch_sphere_boundary_gives_pure_states():
    rng = np.random.default_rng(5)
    for _ in range(50):
        v = rng.standard_normal(3)
        v /= np.linalg.norm(v)
        eigs = np.linalg.eigvalsh(_bloch_state(v).matrix)
        assert np.allclose(eigs, [0.0, 1.0], atol=1e-12)


def test_pure_state_examples():
    assert np.allclose(pure_state([1, 0]).matrix, np.diag([1.0, 0.0]))
    assert np.allclose(pure_state([1, 1]).matrix, np.full((2, 2), 0.5))
    # normalization is forced
    assert np.allclose(pure_state([2, 0]).matrix, np.diag([1.0, 0.0]))
    with pytest.raises(ZeroVector):
        pure_state([0.0, 0.0])


def test_pure_state_is_rank_one():
    rng = np.random.default_rng(7)
    v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    eigs = np.linalg.eigvalsh(pure_state(v).matrix)
    assert np.allclose(eigs, [0.0, 0.0, 0.0, 1.0], atol=1e-12)


def test_singlet_entries():
    rho = singlet_state().matrix
    expected = np.zeros((4, 4), dtype=complex)
    expected[1, 1] = expected[2, 2] = 0.5
    expected[1, 2] = expected[2, 1] = -0.5
    assert np.allclose(rho, expected, atol=1e-15)


def test_singlet_marginals_are_maximally_mixed():
    rho = singlet_state()
    for keep in ("first", "second"):
        reduced = _partial_trace_loops(rho.matrix, 2, 2, keep)
        assert np.allclose(reduced, np.eye(2) / 2, atol=1e-14)


def test_singlet_computational_basis_outcomes():
    joint = joint_distribution(singlet_state(), projective_pair(0.0), projective_pair(0.0))
    assert np.allclose(joint, [[0.0, 0.5], [0.5, 0.0]], atol=1e-14)


@pytest.mark.parametrize("theta,expected0", [
    (0.0, np.diag([1.0, 0.0])),
    (math.pi / 2, np.diag([0.0, 1.0])),
])
def test_projective_pair_axis_angles(theta, expected0):
    m = projective_pair(theta)
    assert np.allclose(m.operators[0], expected0, atol=1e-15)
    assert np.allclose(m.operators[0] + m.operators[1], np.eye(2), atol=1e-15)


def test_projective_pair_diagonal_angle():
    m = projective_pair(math.pi / 4)
    for op in m.operators:
        assert np.allclose(np.abs(op), 0.5, atol=1e-15)


def test_projective_pair_operators_are_projectors():
    rng = np.random.default_rng(11)
    for theta in rng.uniform(-math.pi, math.pi, 20):
        m = projective_pair(theta)
        for op in m.operators:
            assert np.allclose(op @ op, op, atol=1e-14)


def test_measurement_rejects_double_identity():
    with pytest.raises(ValidationError, match=r"completeness deviation 1\.000e\+00$"):
        Measurement((np.eye(2), np.eye(2)))


def test_measurement_rejects_negative_operator():
    with pytest.raises(ValidationError, match=r"min eigenvalue -5\.000e-01,"):
        Measurement([np.diag([1.5, 0.0]), np.diag([-0.5, 1.0])])


def test_outcome_distribution_maximally_mixed_is_uniform():
    rng = np.random.default_rng(19)
    rho = maximally_mixed(2)
    for theta in rng.uniform(0, math.pi, 10):
        probs = _local_distribution(rho, projective_pair(theta))
        assert np.allclose(probs, [0.5, 0.5], atol=1e-14)


def test_outcome_distribution_pure_alignments():
    rho = pure_state([1, 0])
    assert np.allclose(_local_distribution(rho, projective_pair(0.0)), [1.0, 0.0], atol=1e-14)
    assert np.allclose(
        _local_distribution(rho, projective_pair(math.pi / 4)), [0.5, 0.5], atol=1e-14
    )


def test_outcome_distribution_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        _local_distribution(singlet_state(), projective_pair(0.1))


def test_outcome_distribution_sums_to_one_randomized():
    # 1000 seeded state/measurement pairs, mixing projective and general POVMs
    rng = np.random.default_rng(23)
    for case in range(1000):
        dim = 2 if case % 2 == 0 else 4
        rho = random_density_matrix(dim, rng) if case % 3 else random_pure_density(dim, rng)
        if dim == 2 and case % 2 == 0:
            m = random_projective_pair(rng)
        else:
            m = random_povm(dim, int(rng.integers(2, 5)), rng)
        probs = _local_distribution(rho, m)
        assert abs(probs.sum() - 1.0) <= 1e-9
        assert probs.min() >= 0.0


def test_joint_distribution_reference_values():
    joint = joint_distribution(singlet_state(), projective_pair(0.0), projective_pair(math.pi / 8))
    half_sin = 0.5 * math.sin(math.pi / 8) ** 2
    half_cos = 0.5 * math.cos(math.pi / 8) ** 2
    assert np.allclose(joint, [[half_sin, half_cos], [half_cos, half_sin]], atol=1e-10)
    assert joint[0, 0] == pytest.approx(0.0732233047, abs=1e-9)
    assert joint[0, 1] == pytest.approx(0.4267766953, abs=1e-9)


@pytest.mark.parametrize("theta", [0.0, 0.7, 2.1])
def test_joint_distribution_equal_angles_anticorrelate(theta):
    joint = joint_distribution(singlet_state(), projective_pair(theta), projective_pair(theta))
    assert np.allclose(joint, [[0.0, 0.5], [0.5, 0.0]], atol=1e-12)


def test_joint_distribution_three_eighths_case():
    joint = joint_distribution(
        singlet_state(), projective_pair(math.pi / 4), projective_pair(-math.pi / 8)
    )
    expected = 0.5 * math.sin(3 * math.pi / 8) ** 2
    assert joint[0, 0] == pytest.approx(expected, abs=1e-10)
    assert joint[1, 1] == pytest.approx(expected, abs=1e-10)
    assert expected == pytest.approx(0.4267766953, abs=1e-9)


def test_joint_distribution_matches_closed_form_on_grid():
    rho = singlet_state()
    angles = np.linspace(-math.pi, math.pi, 11)
    worst = 0.0
    for t1 in angles:
        for t2 in angles:
            joint = joint_distribution(rho, projective_pair(t1), projective_pair(t2))
            worst = max(worst, float(np.max(np.abs(joint - singlet_table(t1, t2)))))
    assert worst < 1e-10


def _rotated_basis(theta):
    """The orthonormal pair (cos t, sin t) and (-sin t, cos t)."""
    c, s = math.cos(theta), math.sin(theta)
    return np.array([c, s]), np.array([-s, c])


def test_joint_distribution_matches_amplitude_oracle():
    # independent route: p_st = |<m_s ox n_t | eta>|^2 from raw inner products
    rng = np.random.default_rng(29)
    for _ in range(25):
        t1, t2 = rng.uniform(-math.pi, math.pi, 2)
        joint = joint_distribution(singlet_state(), projective_pair(t1), projective_pair(t2))
        ms = _rotated_basis(t1)
        ns = _rotated_basis(t2)
        for s in range(2):
            for t in range(2):
                amp = np.vdot(np.kron(ms[s], ns[t]), SINGLET_VECTOR)
                assert joint[s, t] == pytest.approx(abs(amp) ** 2, abs=1e-12)


def test_joint_marginals_match_partial_traces():
    rng = np.random.default_rng(31)
    for _ in range(30):
        rho = random_density_matrix(4, rng)
        m = random_projective_pair(rng)
        n = random_povm(2, 3, rng)
        joint = joint_distribution(rho, m, n)
        rho_a = _partial_trace_loops(rho.matrix, 2, 2, "first")
        rho_b = _partial_trace_loops(rho.matrix, 2, 2, "second")
        first = [np.trace(op @ rho_a).real for op in m.operators]
        second = [np.trace(op @ rho_b).real for op in n.operators]
        assert np.allclose(joint.sum(axis=1), first, atol=1e-10)
        assert np.allclose(joint.sum(axis=0), second, atol=1e-10)


def _partial_trace_loops(matrix, da, db, keep):
    if keep == "first":
        out = np.zeros((da, da), dtype=complex)
        for i in range(da):
            for j in range(da):
                out[i, j] = sum(matrix[i * db + k, j * db + k] for k in range(db))
    else:
        out = np.zeros((db, db), dtype=complex)
        for k in range(db):
            for l in range(db):
                out[k, l] = sum(matrix[i * db + k, i * db + l] for i in range(da))
    return out


def test_no_signalling_reference_configuration():
    report = no_signalling_check(
        singlet_state(),
        [projective_pair(0.0), projective_pair(math.pi / 4)],
        projective_pair(math.pi / 8),
    )
    assert report.passed
    assert report.max_deviation < 1e-12
    assert np.allclose(report.marginal, [0.5, 0.5], atol=1e-12)


def test_no_signalling_random_configurations():
    rng = np.random.default_rng(47)
    for _ in range(40):
        rho = random_pure_density(4, rng)
        choices = [random_projective_pair(rng) for _ in range(3)]
        bob = random_projective_pair(rng)
        assert no_signalling_check(rho, choices, bob).max_deviation < 1e-12


def test_no_signalling_singlet_marginal_flat_for_any_bob_angle():
    rng = np.random.default_rng(53)
    for theta in rng.uniform(-math.pi, math.pi, 10):
        report = no_signalling_check(singlet_state(), [projective_pair(0.0)], projective_pair(theta))
        assert np.allclose(report.marginal, [0.5, 0.5], atol=1e-12)


def _perturbed(m, rng, size=4e-10):
    """m with size * H added to its first operator, H Hermitian of unit norm.

    Completeness is then off by up to ``size``, inside TOL_POVM, so the
    marginal of the other party shifts by a little and the check reads a
    deviation well above rounding.
    """
    g = rng.standard_normal(m.operators[0].shape) + 1j * rng.standard_normal(m.operators[0].shape)
    h = (g + g.conj().T) / 2.0
    h /= np.linalg.norm(h, 2)
    return Measurement((m.operators[0] + size * h,) + tuple(m.operators[1:]))


def _kron_no_signalling(rho, choices, second):
    """max over choices and outcomes j of |sum_i tr(rho M_i ox N_j) - tr(rho_B N_j)|, via np.kron."""
    da = choices[0].dim
    rho_b = _partial_trace_loops(rho.matrix, da, second.dim, "second")
    marginal = [np.trace(rho_b @ nj).real for nj in second.operators]
    worst = 0.0
    for m in choices:
        for j, nj in enumerate(second.operators):
            summed = sum(np.trace(rho.matrix @ np.kron(mi, nj)).real for mi in m.operators)
            worst = max(worst, abs(summed - marginal[j]))
    return worst, marginal


def test_no_signalling_check_matches_kron_oracle():
    # choices of 2 and 3 outcomes, a 3-outcome second party, mixed and pure states
    rng = np.random.default_rng(59)
    for case in range(12):
        da, db = ((2, 2), (2, 3), (3, 2))[case % 3]
        rho = random_density_matrix(da * db, rng) if case % 2 else random_pure_density(da * db, rng)
        choices = [random_povm(da, 2, rng), random_povm(da, 3, rng)]
        choices.append(_perturbed(choices[case % 2], rng))
        second = random_povm(db, 3, rng)
        report = no_signalling_check(rho, choices, second)
        worst, marginal = _kron_no_signalling(rho, choices, second)
        assert worst > 1e-12
        assert report.max_deviation == pytest.approx(worst, abs=1e-12)
        assert np.allclose(report.marginal, marginal, atol=1e-12)


def test_density_matrix_rejects_non_hermitian():
    bad = np.array([[0.5, 0.5], [0.0, 0.5]], dtype=complex)
    with pytest.raises(ValidationError):
        DensityMatrix(bad)


def test_density_matrix_rejects_wrong_trace():
    with pytest.raises(ValidationError):
        DensityMatrix(np.diag([0.7, 0.7]))


def test_density_matrix_rejects_negative_eigenvalue():
    with pytest.raises(ValidationError):
        DensityMatrix(np.diag([1.5, -0.5]))


def test_density_matrix_dimension_cap():
    with pytest.raises(DimensionCapExceeded):
        DensityMatrix(np.eye(65) / 65)


def test_values_are_immutable():
    rho = singlet_state()
    with pytest.raises(ValueError):
        rho.matrix[0, 0] = 1.0
    m = projective_pair(0.2)
    with pytest.raises(ValueError):
        m.operators[0][0, 0] = 2.0


def test_operators_are_one_read_only_stack_from_any_iterable():
    m = projective_pair(0.3)
    for source in (tuple(m.operators), list(m.operators), np.array(m.operators)):
        ops = Measurement(source).operators
        assert isinstance(ops, np.ndarray)
        assert ops.shape == (2, 2, 2) and ops.dtype == complex
        assert not ops.flags.writeable
        assert np.array_equal(ops, m.operators)
    # the stack is a copy, so writing into the source afterwards changes nothing
    source = np.array(m.operators)
    built = Measurement(source)
    source[0, 0, 0] = 5.0
    assert np.array_equal(built.operators, m.operators)
    povm = random_povm(3, 3, np.random.default_rng(61))
    assert povm.operators.shape == (3, 3, 3) and not povm.operators.flags.writeable


def _rotated_povm(dim, n_outcomes, rng):
    """Rank-deficient POVM on a random basis: each of its operators has a zero eigenvalue.

    Two outcomes split the basis into one vector and the rest; three outcomes
    on a qubit are {P0 / 2, P1 / 2, I / 2}, on a qutrit the three basis
    projectors.
    """
    q, _ = np.linalg.qr(rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
    projectors = [np.outer(q[:, i], q[:, i].conj()) for i in range(dim)]
    if n_outcomes == 2:
        return [projectors[0], sum(projectors[1:])]
    if dim == 2:
        return [projectors[0] / 2, projectors[1] / 2, np.eye(2) / 2]
    return projectors


@pytest.mark.parametrize("dim,n_outcomes", [(2, 2), (2, 3), (3, 2), (3, 3)])
@pytest.mark.parametrize("shift,passes", [(0.9e-9, True), (1.1e-9, False)])
def test_povm_eigenvalue_check_at_the_psd_tolerance(dim, n_outcomes, shift, passes):
    rng = np.random.default_rng(67 + 10 * dim + n_outcomes)
    ops = _rotated_povm(dim, n_outcomes, rng)
    # completeness is kept: one operator moves down by shift * I, another up
    ops[0] = ops[0] - shift * np.eye(dim)
    ops[1] = ops[1] + shift * np.eye(dim)
    reference = min(float(np.linalg.eigvalsh((op + op.conj().T) / 2)[0]) for op in ops)
    assert reference == pytest.approx(-shift, abs=1e-15)
    assert np.max(np.abs(sum(ops) - np.eye(dim))) <= 1e-15
    if passes:
        assert Measurement(ops).n_outcomes == n_outcomes
    else:
        with pytest.raises(ValidationError, match=f"invalid POVM: .* min eigenvalue {reference:.3e},"):
            Measurement(ops)


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("shift,passes", [(0.9e-9, True), (1.1e-9, False)])
def test_density_eigenvalue_check_at_the_psd_tolerance(dim, shift, passes):
    spectrum = np.zeros(dim)
    spectrum[0], spectrum[-1] = 1.0 + shift, -shift
    rng = np.random.default_rng(71 + dim)
    q, _ = np.linalg.qr(rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
    for matrix in (np.diag(spectrum), (q * spectrum) @ q.conj().T):
        reference = float(np.linalg.eigvalsh((matrix + matrix.conj().T) / 2)[0])
        assert reference == pytest.approx(-shift, abs=1e-15)
        if passes:
            assert np.array_equal(DensityMatrix(matrix).matrix, matrix)
        else:
            with pytest.raises(ValidationError, match="eigenvalue"):
                DensityMatrix(matrix)


_NAN = np.array([[np.nan, 0.0], [0.0, 1.0]])


@pytest.mark.parametrize("operators,error,message", [
    ((np.eye(2), np.eye(3)), ValidationError, r"operator 1 has shape \(3, 3\), expected \(2, 2\)"),
    ((np.ones((2, 3)),), ValidationError, r"operator 0 has shape \(2, 3\), expected \(2, 2\)"),
    (([[1.0, 0.0], [0.0]], np.eye(2)), ValidationError,
     "operator 0: not coercible to a complex matrix"),
    (np.eye(2), ValidationError, r"operator 0: expected 2 dimensions, got shape \(2,\)"),
    ((), ValidationError, "a measurement needs at least one outcome operator"),
    ([], ValidationError, "a measurement needs at least one outcome operator"),
    ((np.eye(2), _NAN), ValidationError, "operator 1: contains non-finite entries"),
    ((np.full((2, 2), np.inf),), ValidationError, "operator 0: contains non-finite entries"),
    ((np.eye(2), np.array([[1.0, complex(0.0, np.inf)], [0.0, 0.0]])), ValidationError,
     "operator 1: contains non-finite entries"),
    ((np.eye(65), np.eye(2)), DimensionCapExceeded, "dimension 65 exceeds the dense cap 64"),
    ((np.zeros((0, 0)),), ValidationError, "operators are 0x0"),
    ([np.zeros((0, 0))], ValidationError, "operators are 0x0"),
    (np.zeros((2, 0, 0)), ValidationError, "operators are 0x0"),
])
def test_bad_operator_collections_raise(operators, error, message):
    with pytest.raises(error, match=f"^{message}"):
        Measurement(operators)


@pytest.mark.parametrize("matrix,error,message", [
    (_NAN, ValidationError, "density matrix: contains non-finite entries"),
    ([[1.0, 0.0], [0.0]], ValidationError, "density matrix: not coercible to a complex matrix"),
    (np.full((2, 3), 0.5), ValidationError, "density matrix must be square, got 2x3"),
    # the Hermitian check runs on the empty stack before the trace check raises
    (np.zeros((0, 0)), ValidationError, "density matrix trace differs from 1 by 1.000e"),
])
def test_bad_density_matrices_raise(matrix, error, message):
    with pytest.raises(error, match=f"^{message}"):
        DensityMatrix(matrix)


# The package's own measurements and states skip the public checks, so each
# builder's output must pass those checks and come back as the same bytes.


def _assert_checked_povm(measurement):
    stack = measurement.operators
    checked = _operator_stack(stack)
    assert checked.dtype == stack.dtype == complex and checked.shape == stack.shape
    assert checked.tobytes() == stack.tobytes()
    assert stack.flags.c_contiguous and not stack.flags.writeable


def _assert_checked_state(rho):
    checked = DensityMatrix(rho.matrix).matrix
    assert checked.dtype == rho.matrix.dtype == complex and checked.shape == rho.matrix.shape
    assert checked.tobytes() == rho.matrix.tobytes()
    assert rho.matrix.flags.c_contiguous and not rho.matrix.flags.writeable


def test_projective_pairs_pass_the_povm_check_unchanged():
    angles = np.random.default_rng(73).uniform(-10.0, 10.0, 1000)
    for theta in [*angles, 1e6, -1e6, *(k * math.pi / 4 for k in range(-8, 9))]:
        _assert_checked_povm(projective_pair(theta))


@pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 3)])
def test_seesaw_povms_pass_the_povm_check_unchanged(dims):
    rng = np.random.default_rng(79 + 10 * dims[0] + dims[1])
    for seed in range(20):
        game = random_game(rng)
        shared = random_density_matrix(dims[0] * dims[1], rng)
        profile, _ = seesaw_optimize(game, shared, OptimizerConfig(restarts=2, refine_iterations=8, seed=seed),
                                     dims=dims)
        for family in (profile.family_a, profile.family_b):
            for label in family.labels:
                _assert_checked_povm(family[label])


def test_pure_states_pass_the_state_check_unchanged():
    rng = np.random.default_rng(83)
    for dim in range(1, 9):
        for scale in (1e-150, 1e-3, 1.0, 1e3, 1e150):
            _assert_checked_state(pure_state(scale * complex_gaussian(rng, dim)))
    _assert_checked_state(singlet_state())


@pytest.mark.parametrize("dim", range(1, 9))
def test_maximally_mixed_passes_the_state_check_unchanged(dim):
    rho = maximally_mixed(dim)
    _assert_checked_state(rho)
    assert np.array_equal(rho.matrix, np.eye(dim) / dim)
