import math

import numpy as np
import pytest

from qcoord import (
    BehaviorTable,
    DensityMatrix,
    DimensionMismatch,
    Game,
    IncompatibleLabels,
    InvalidConfig,
    Measurement,
    MeasurementFamily,
    NonBinaryActions,
    ValidationError,
    angle_family,
    behavior_from_profile,
    chsh_game,
    check_disjoint,
    distribution_from_quantum,
    evaluate_qubit_strategy,
    expected_payoff,
    maximally_mixed,
    optimize_angles,
    pure_state,
    seesaw_optimize,
    singlet_state,
)
from qcoord.strategies import (
    OptimizerConfig,
    QuantumStrategyProfile,
    QubitAngleStrategy,
    _REPEAT_WINDOW,
    _SQRT2,
    _ZX,
    _AngleEngine,
    _SeesawEngine,
    _coordinates,
    _hermitian_basis,
    _qubit_coordinates,
    _signed_weights,
    _unit_vectors,
    chsh_reference_strategy,
)
from qcoord.quantum import joint_distribution
from sampling import random_density_matrix, random_game, random_povm, random_pure_density
from conftest import reference_families, singlet_table
from rowmajor import RowMajorEngine, to_columns, to_rows

QUANTUM_TARGET = math.cos(math.pi / 8) ** 2


@pytest.fixture(scope="module")
def game():
    return chsh_game()


@pytest.fixture(scope="module")
def singlet():
    return singlet_state()


def _value_history(engine, ms, ns, sweeps):
    """Row k holds every restart's value after k sweeps, for k = 0..sweeps; row 0 is the start's.

    Each run starts from the same B strategies; a k-sweep run is a prefix of
    any longer run from them.
    """
    return np.array([engine.values(ms, ns)] + [engine.sweep(ns, k)[2] for k in range(1, sweeps + 1)])


def test_behavior_from_profile_reference_cell(game, singlet):
    fam_a, fam_b = reference_families(game)
    profile = QuantumStrategyProfile(singlet, fam_a, fam_b)
    behavior = behavior_from_profile(profile, game)
    cell = behavior.table[:, :, 0, 1]  # state_a "0", state_b "pi/8"
    assert np.allclose(cell, singlet_table(0.0, math.pi / 8), atol=1e-10)


def test_behavior_from_profile_maximally_mixed_is_uniform(game):
    fam_a, fam_b = reference_families(game)
    profile = QuantumStrategyProfile(maximally_mixed(4), fam_a, fam_b)
    behavior = behavior_from_profile(profile, game)
    assert np.allclose(behavior.table, 0.25, atol=1e-12)


def test_behavior_from_profile_product_state_plays_00(game):
    shared = DensityMatrix(np.kron(pure_state([1, 0]).matrix, pure_state([1, 0]).matrix))
    fam = angle_family({s: 0.0 for s in game.states_a})
    fam_b = angle_family({s: 0.0 for s in game.states_b})
    profile = QuantumStrategyProfile(shared, fam, fam_b)
    behavior = behavior_from_profile(profile, game)
    assert np.allclose(behavior.table[0, 0], 1.0, atol=1e-12)


def test_behavior_from_profile_outcome_relabeling(game, singlet):
    fam_a, fam_b = reference_families(game)
    swapped = QuantumStrategyProfile(singlet, fam_a, fam_b,
                                     outcome_to_action_a=(1, 0))
    plain = behavior_from_profile(QuantumStrategyProfile(singlet, fam_a, fam_b), game)
    flipped = behavior_from_profile(swapped, game)
    assert np.allclose(flipped.table, plain.table[::-1, :, :, :], atol=1e-14)


def test_behavior_from_profile_rejects_foreign_labels(game, singlet):
    fam_a = angle_family({"x": 0.0, "y": 0.1})
    _, fam_b = reference_families(game)
    with pytest.raises(IncompatibleLabels):
        behavior_from_profile(QuantumStrategyProfile(singlet, fam_a, fam_b), game)


def test_profile_rejects_non_integer_actions(game, singlet):
    fam_a, fam_b = reference_families(game)
    for bad, entry in (((1.7, 0), "1.7"), ((0, True), "True"), ((0, -1), "-1")):
        with pytest.raises(ValidationError, match=rf"outcome_to_action_b: action {entry} for outcome"):
            QuantumStrategyProfile(singlet, fam_a, fam_b, outcome_to_action_b=bad)
    profile = QuantumStrategyProfile(singlet, fam_a, fam_b,
                                     outcome_to_action_a=(np.int64(1), np.int32(0)))
    assert profile.outcome_to_action_a == (1, 0)
    assert all(type(x) is int for x in profile.outcome_to_action_a)


@pytest.mark.parametrize("side", ["a", "b"])
@pytest.mark.parametrize("action,error,message", [
    (-1, ValidationError, "action -1 for outcome 1 is not a nonnegative integer"),
    (1.0, ValidationError, "action 1.0 for outcome 1 is not a nonnegative integer"),
    (True, ValidationError, "action True for outcome 1 is not a nonnegative integer"),
    ("1", ValidationError, "action '1' for outcome 1 is not a nonnegative integer"),
    (2, IncompatibleLabels, "outcome-to-action map points outside the action set"),
])
def test_outcome_to_action_rejects_actions_outside_the_action_set(game, singlet, side, action,
                                                                   error, message):
    # a negative index would wrap to the last action, and 2 would index past the two actions
    fam_a, fam_b = reference_families(game)
    with pytest.raises(error, match=rf"^(outcome_to_action_{side}: )?{message}$"):
        profile = QuantumStrategyProfile(singlet, fam_a, fam_b,
                                         **{f"outcome_to_action_{side}": (0, action)})
        behavior_from_profile(profile, game)


def test_profile_dimension_check(game):
    fam_a, fam_b = reference_families(game)
    with pytest.raises(DimensionMismatch):
        QuantumStrategyProfile(maximally_mixed(2), fam_a, fam_b)


def test_behaviors_from_profiles_are_disjoint(game):
    # measurement statistics never leak the other player's state
    rng = np.random.default_rng(107)
    for _ in range(25):
        shared = random_density_matrix(4, rng)
        fam_a = angle_family({s: rng.uniform(0, math.pi) for s in game.states_a})
        fam_b = angle_family({s: rng.uniform(0, math.pi) for s in game.states_b})
        dist = distribution_from_quantum(shared, fam_a, fam_b, game.prior_a, game.prior_b)
        assert check_disjoint(dist).max_violation < 1e-10


def test_family_tables_match_per_pair_joint_distributions():
    # the batched tables must equal one joint_distribution per state pair, bit for bit
    rng = np.random.default_rng(137)
    for case in range(12):
        dims = ((2, 2), (2, 3), (3, 2))[case % 3]
        n_out = (2 + case % 2, 3 - case % 2)
        game = random_game(rng, n_states=(2 + case % 2, 3))
        dim = dims[0] * dims[1]
        shared = random_density_matrix(dim, rng) if case % 2 else random_pure_density(dim, rng)
        # family labels in reverse game order, outcomes relabelled onto the two actions
        fam_a = MeasurementFamily({f: random_povm(dims[0], n_out[0], rng)
                                   for f in reversed(game.states_a)})
        fam_b = MeasurementFamily({w: random_povm(dims[1], n_out[1], rng)
                                   for w in reversed(game.states_b)})
        map_a = tuple(int(x) for x in rng.integers(0, 2, n_out[0]))
        map_b = tuple(int(x) for x in rng.integers(0, 2, n_out[1]))
        profile = QuantumStrategyProfile(shared, fam_a, fam_b, map_a, map_b)
        dist = distribution_from_quantum(shared, fam_a, fam_b, game.prior_a, game.prior_b)

        expected_q = np.zeros((2, 2, len(game.states_a), len(game.states_b)))
        expected_p = np.zeros(dist.table.shape)
        for fi, f in enumerate(game.states_a):
            for wi, w in enumerate(game.states_b):
                joint = joint_distribution(shared, fam_a[f], fam_b[w])
                for s_ in range(n_out[0]):
                    for t in range(n_out[1]):
                        expected_q[map_a[s_], map_b[t], fi, wi] += joint[s_, t]
        for fi, f in enumerate(fam_a.labels):
            for wi, w in enumerate(fam_b.labels):
                joint = joint_distribution(shared, fam_a[f], fam_b[w])
                expected_p[:, :, fi, wi] = game.prior_a[fi] * game.prior_b[wi] * joint
        assert np.array_equal(behavior_from_profile(profile, game).table,
                              BehaviorTable(expected_q).table)
        assert np.array_equal(dist.table, expected_p)


def test_evaluate_reference_strategy_hits_quantum_value(game, singlet):
    value = evaluate_qubit_strategy(game, chsh_reference_strategy(), singlet)
    assert value == pytest.approx(QUANTUM_TARGET, abs=1e-10)


def test_evaluate_zero_angles_scores_three_quarters(game, singlet):
    strategy = QubitAngleStrategy({s: 0.0 for s in game.states_a},
                                  {s: 0.0 for s in game.states_b})
    assert evaluate_qubit_strategy(game, strategy, singlet) == pytest.approx(0.75, abs=1e-12)


def test_evaluate_on_maximally_mixed_equals_uniform_payoff(game):
    strategy = chsh_reference_strategy()
    value = evaluate_qubit_strategy(game, strategy, maximally_mixed(4))
    uniform = float(game.payoff.mean(axis=(0, 1)).mean())
    assert value == pytest.approx(uniform, abs=1e-12)
    assert value == pytest.approx(0.5, abs=1e-12)


def test_evaluate_angle_shift_symmetry_on_singlet(game, singlet):
    rng = np.random.default_rng(109)
    base = chsh_reference_strategy()
    reference = evaluate_qubit_strategy(game, base, singlet)
    for delta in rng.uniform(-math.pi, math.pi, 8):
        shifted = QubitAngleStrategy(
            {k: v + delta for k, v in base.angles_a.items()},
            {k: v + delta for k, v in base.angles_b.items()},
        )
        assert evaluate_qubit_strategy(game, shifted, singlet) == pytest.approx(
            reference, abs=1e-10
        )


def test_evaluate_requires_binary_actions(singlet):
    game3 = Game(("0",), ("0",), (1.0,), (1.0,), ("0", "1", "2"), ("0", "1"),
                 np.zeros((3, 2, 1, 1)))
    strategy = QubitAngleStrategy({"0": 0.0}, {"0": 0.0})
    with pytest.raises(NonBinaryActions):
        evaluate_qubit_strategy(game3, strategy, singlet)


def test_angle_engine_agrees_with_public_evaluation():
    rng = np.random.default_rng(113)
    for n_states in ((2, 2), (2, 3), (3, 2)):
        game = random_game(rng, n_states=n_states)
        for shared in (random_density_matrix(4, rng), random_pure_density(4, rng)):
            engine = _AngleEngine(game, shared)
            thetas_a = rng.uniform(-math.pi, math.pi, size=(10, n_states[0]))
            thetas_b = rng.uniform(-math.pi, math.pi, size=(10, n_states[1]))
            fast = engine.values(_unit_vectors(thetas_a), _unit_vectors(thetas_b))
            for row_a, row_b, batch_value in zip(thetas_a, thetas_b, fast):
                strategy = QubitAngleStrategy(
                    {s: row_a[i] for i, s in enumerate(game.states_a)},
                    {s: row_b[i] for i, s in enumerate(game.states_b)},
                )
                slow = evaluate_qubit_strategy(game, strategy, shared)
                assert batch_value == pytest.approx(slow, abs=1e-12)


def test_engine_terms_match_kron_expectations():
    # local terms wa_f tr(rho (O_k x I)), wb_w tr(rho (I x O_k)); coupling wab_fw tr(rho (O_i x O_j))
    rng = np.random.default_rng(139)
    cases = [(_AngleEngine, (2, 2), _ZX, _ZX)]
    for dims in ((2, 2), (2, 3), (3, 2)):
        cases.append((_SeesawEngine, dims, _hermitian_basis(dims[0]), _hermitian_basis(dims[1])))
    for make, dims, ops_a, ops_b in cases:
        game = random_game(rng, n_states=(2, 3))
        shared = random_density_matrix(dims[0] * dims[1], rng)
        engine = make(game, shared) if make is _AngleEngine else make(game, shared, dims)
        rho = shared.matrix

        def expect(op):
            return np.trace(rho @ op).real

        alpha = [expect(np.kron(o, np.eye(dims[1]))) for o in ops_a]
        beta = [expect(np.kron(np.eye(dims[0]), o)) for o in ops_b]
        corr = np.array([[expect(np.kron(p, q)) for q in ops_b] for p in ops_a])
        w0, wa, wb, wab = _signed_weights(game)
        assert engine.w0 == w0
        # each map is [coupling | local term], C order
        assert np.allclose(engine.to_a[:, -1], np.outer(wa, alpha).reshape(-1), atol=1e-12)
        assert np.allclose(engine.to_b[:, -1], np.outer(wb, beta).reshape(-1), atol=1e-12)
        coupling = np.einsum("fw,ij->fiwj", wab, corr).reshape(engine.to_a[:, :-1].shape)
        assert np.allclose(engine.to_a[:, :-1], coupling, atol=1e-12)
        assert np.allclose(engine.to_b[:, :-1], coupling.T, atol=1e-12)
        assert engine.to_a.flags.c_contiguous and engine.to_b.flags.c_contiguous


def test_best_restart_is_the_earliest_best_row(game, singlet):
    engine = _AngleEngine(game, singlet)
    rng = np.random.default_rng(149)
    us = _unit_vectors(rng.uniform(0.0, math.pi, size=(7, 2)))
    cfg = OptimizerConfig(refine_iterations=3)
    ms, ns, values = engine.sweep(engine.respond_b(us), 3)
    # several restarts reach exactly the same value at different angles, so the tie rule decides
    best = int(np.argmax(values))
    assert np.count_nonzero(values == values[best]) > 1
    u, v = engine.best_restart(engine.respond_b(us), cfg)
    assert np.array_equal(u, ms[:, best]) and np.array_equal(v, ns[:, best])


def test_angle_sweep_value_sequence_is_monotone():
    rng = np.random.default_rng(127)
    for n_states in ((2, 2), (3, 2)):
        game = random_game(rng, n_states=n_states)
        engine = _AngleEngine(game, random_density_matrix(4, rng))
        us = _unit_vectors(rng.uniform(0, math.pi, size=(16, n_states[0])))
        history = _value_history(engine, us, engine.respond_b(us), 50)
        assert history.shape[0] > 2
        assert np.diff(history, axis=0).min() >= -1e-12


def _uniform_game(payoff):
    """A binary-action game with uniform priors and the given payoff, shape (2, 2, states_a, states_b)."""
    n_a, n_b = payoff.shape[2:]
    return Game(tuple(map(str, range(n_a))), tuple(map(str, range(n_b))), np.full(n_a, 1.0 / n_a),
                np.full(n_b, 1.0 / n_b), ("0", "1"), ("0", "1"), payoff)


# eigenvalues on both sides of the -TOL_PSD cut, as in test_qubit_projector_matches_eigendecomposition
TIE_BAND = np.array([-1.0, -2e-9, -8e-10, -5e-10, 0.0, 5e-10, 1.0])


def _rare_branch_cases(rng, rows):
    """Named engine cases whose responses take the kernels' rare branches, with ``rows`` starts.

    A constant payoff makes every gain zero: the angle engine's (1, 0)
    columns and the see-saw's sign(0) = I.  A payoff that only A's action
    moves, with signed weight wa_f = 2 c_f in state f, leaves A the gain
    operator c_f I on a maximally entangled state, for c_f in ``TIE_BAND``.
    On the singlet, see-saw starts pinned at +-I stay at +-I.
    """
    singlet = singlet_state()
    qutrits = pure_state(np.eye(3).reshape(-1) / math.sqrt(3.0))
    constant = _uniform_game(np.full((2, 2, 2, 3), 0.625))
    # wa_f = prior_f * (payoff moved by A's action) with a uniform prior over TIE_BAND.size states
    moves = (2.0 * TIE_BAND * TIE_BAND.size)[:, None]
    payoff = np.empty((2, 2, TIE_BAND.size, 1))
    payoff[0], payoff[1] = 0.5 + moves, 0.5 - moves
    tie = _uniform_game(payoff)
    engine = _AngleEngine(constant, singlet)
    us = _unit_vectors(rng.uniform(0.0, math.pi, size=(rows, 2)))
    yield "constant angles", engine, RowMajorEngine(engine, constant, singlet), us, engine.respond_b(us), 2, 2
    for dim, shared in ((2, singlet), (3, qutrits)):
        for name, game in (("constant", constant), ("tie band", tie)):
            engine = _SeesawEngine(game, shared, (dim, dim))
            ms = engine.random_binary_families(rng, rows, len(game.states_a), dim)
            ns = engine.random_binary_families(rng, rows, len(game.states_b), dim)
            yield f"{name} {dim}x{dim}", engine, RowMajorEngine(engine, game, shared), ms, ns, dim ** 2, dim ** 2
    game = random_game(rng, n_states=(2, 3))
    engine = _SeesawEngine(game, singlet, (2, 2))
    ms, ns = (np.zeros((n, 4, rows)) for n in (2, 3))
    for pinned in (ms, ns):
        pinned[:, 0] = _SQRT2 * rng.choice([-1.0, 1.0], size=pinned[:, 0].shape)
    yield "pinned 2x2", engine, RowMajorEngine(engine, game, singlet), ms.reshape(8, rows), ns.reshape(12, rows), 4, 4


def _engine_cases(rng, rows):
    """Engines on random games with their row-major references and ``rows`` random starts.

    Angle engines with 1-3 states per player; see-saws at 2x2, 2x3 and 3x3
    on mixed and pure states, including a player with a single state; then
    the cases of :func:`_rare_branch_cases`.
    """
    for i, n_states in enumerate(((1, 1), (1, 3), (2, 2), (3, 2), (2, 3), (3, 3))):
        game = random_game(rng, n_states=n_states)
        shared = random_density_matrix(4, rng) if i % 2 else random_pure_density(4, rng)
        engine = _AngleEngine(game, shared)
        us = _unit_vectors(rng.uniform(0.0, math.pi, size=(rows, n_states[0])))
        yield engine, RowMajorEngine(engine, game, shared), us, engine.respond_b(us), 2, 2
    for dims in ((2, 2), (2, 3), (3, 3)):
        for n_states, pure in (((2, 2), False), ((2, 3), True), ((3, 1), False)):
            game = random_game(rng, n_states=n_states)
            dim = dims[0] * dims[1]
            shared = random_pure_density(dim, rng) if pure else random_density_matrix(dim, rng)
            engine = _SeesawEngine(game, shared, dims)
            ms = engine.random_binary_families(rng, rows, n_states[0], dims[0])
            ns = engine.random_binary_families(rng, rows, n_states[1], dims[1])
            yield engine, RowMajorEngine(engine, game, shared), ms, ns, dims[0] ** 2, dims[1] ** 2
    for _, *case in _rare_branch_cases(rng, rows):
        yield tuple(case)


def test_rare_branch_cases_reach_their_branches():
    rows, sweeps = 9, 3
    cases = {name: case for name, *case in _rare_branch_cases(np.random.default_rng(163), rows)}
    engine, _, ms, ns, _, _ = cases["constant angles"]
    final_ms, final_ns, _ = engine.sweep(ns, sweeps)
    for final in (final_ms, final_ns):
        assert np.array_equal(final.reshape(-1, 2, rows)[:, 0], np.ones((final.shape[0] // 2, rows)))
        assert not final.reshape(-1, 2, rows)[:, 1].any()
    # sign(K) = +-I has trace coordinate +-sqrt 2 on I / sqrt 2 for qubits, +-1 on each E_ii for qutrits
    identity = {2: np.array([_SQRT2, 0.0, 0.0, 0.0]), 3: np.array([1.0, 1.0, 1.0, 0, 0, 0, 0, 0, 0])}
    on_the_cut = np.where(TIE_BAND >= -1e-9, 1.0, -1.0)
    for dim in (2, 3):
        engine, _, ms, ns, _, _ = cases[f"constant {dim}x{dim}"]
        for final in engine.sweep(ns, sweeps)[:2]:
            coords = final.reshape(-1, dim * dim, rows)
            np.testing.assert_allclose(coords, np.broadcast_to(identity[dim][:, None], coords.shape),
                                       rtol=0.0, atol=1e-15)
        engine, _, ms, ns, _, _ = cases[f"tie band {dim}x{dim}"]
        final = engine.sweep(ns, sweeps)[0].reshape(TIE_BAND.size, dim * dim, rows)
        # -I for the two cuts below -TOL_PSD, I for the rest
        expected = on_the_cut[:, None, None] * identity[dim][None, :, None]
        np.testing.assert_allclose(final, np.broadcast_to(expected, final.shape), rtol=0.0, atol=1e-15)
    engine, _, ms, ns, _, _ = cases["pinned 2x2"]
    final_ms, final_ns, _ = engine.sweep(ns, sweeps)
    for final in (final_ms, final_ns):
        coords = final.reshape(-1, 4, rows)
        assert np.array_equal(np.abs(coords[:, 0]), np.full(coords[:, 0].shape, _SQRT2))
        assert not coords[:, 1:].any()


@pytest.mark.parametrize("rows", [1, 9, 2001])
def test_sweeps_equal_the_row_major_reference_bit_for_bit(rows):
    # values that tie within rounding pick the best restart, so equal to the last bit
    rng = np.random.default_rng(151 + rows)
    sweeps = 6 if rows > 9 else 40
    for engine, reference, ms, ns, k_a, k_b in _engine_cases(rng, rows):
        final_ms, final_ns, values = engine.sweep(ns, sweeps)
        ref_ms, ref_ns, ref_values = reference.sweep(to_rows(ms, k_a), to_rows(ns, k_b), sweeps)
        assert np.array_equal(final_ms, to_columns(ref_ms))
        assert np.array_equal(final_ns, to_columns(ref_ns))
        assert np.array_equal(values, ref_values)
        assert np.array_equal(engine.values(ms, ns),
                              reference.values(to_rows(ms, k_a), to_rows(ns, k_b)))
        # the summation order follows the memory layout, so every strategy array is C order
        for strategies in (ms, ns, final_ms, final_ns, engine.respond_b(ms)):
            assert strategies.flags.c_contiguous


@pytest.mark.parametrize("rows", [1, 9])
def test_sweep_keeps_its_inputs_and_returns_arrays_of_its_own(rows):
    # responses are written in place into the sweep's buffers, so nothing may leak in or out
    rng = np.random.default_rng(167 + rows)
    for engine, _, ms, ns, _, _ in _engine_cases(rng, rows):
        start = ns.copy()
        first = engine.sweep(ns, 4)
        assert np.array_equal(ns, start)
        for got in first:
            assert got.flags.c_contiguous and got.flags.owndata
        for i, got in enumerate(first):
            for other in first[i + 1:] + (ns,):
                assert not np.shares_memory(got, other)
        kept = tuple(x.copy() for x in first)
        second = engine.sweep(ns, 4)
        for got, again, before in zip(first, second, kept):
            assert np.array_equal(again, before) and np.array_equal(got, before)
        assert not np.shares_memory(engine.respond_b(ms), ms)


def test_sub_batches_sweep_like_the_whole_batch():
    rng = np.random.default_rng(157)
    bounds = (0, 1, 8, 21, 521, 1001, 2001)
    for engine, _, ms, ns, _, _ in _engine_cases(rng, 2001):
        whole = engine.sweep(ns, 5)
        parts = [engine.sweep(np.ascontiguousarray(ns[:, lo:hi]), 5) for lo, hi in zip(bounds, bounds[1:])]
        for got, split in zip(whole, zip(*parts)):
            assert np.array_equal(got, np.concatenate(split, axis=-1))


def _bits(x):
    """The float64 array ``x`` as its bit patterns, so that -0.0 differs from 0.0."""
    return np.ascontiguousarray(x).view(np.uint64)


def _record_kernel_widths(engine):
    """Wraps ``engine.kernel`` on the instance; returns a list that gets the batch width of every kernel run.

    Every array a kernel reads or writes must be C-contiguous: a kernel
    reshapes them, and reshaping any other layout copies, so the best
    responses would be written into the copy.
    """
    widths = []
    kernel = engine.kernel

    def recorded_kernel(gain, out, dim):
        assert gain.flags.c_contiguous and out.flags.c_contiguous
        best = kernel(gain, out, dim)

        def recorded():
            widths.append(gain.shape[1])
            best()

        return recorded

    engine.kernel = recorded_kernel
    return widths


def _trajectory(reference, ms, ns, k_a, k_b, sweeps):
    """The reference's strategies and values after 0, 1, ..., ``sweeps`` sweeps from the columns ``ms``, ``ns``."""
    trajectory = [reference.sweep(to_rows(ms, k_a), to_rows(ns, k_b), 0)]
    for _ in range(sweeps):
        trajectory.append(reference.sweep(*trajectory[-1][:2], 1))
    return trajectory


def _b_rows(trajectory):
    return [_bits(to_columns(state[1])) for state in trajectory]


def _kept_before(k):
    """The last sweep before sweep k after which ``sweep`` keeps B's rows: 0, 1, 2 and 4, then every multiple of the window."""
    if k > _REPEAT_WINDOW:
        return (k - 1) // _REPEAT_WINDOW * _REPEAT_WINDOW
    return max(j for j in (0, 1, 2, 4) if j < k)


def _batches(b_rows, sweeps):
    """The batches ``sweep`` runs, predicted from B's bit rows after sweeps 0, 1, ... of every column.

    A column repeats at the first sweep k whose rows equal those kept after
    sweep j = :func:`_kept_before` (k), with period k - j, and leaves at the
    next count congruent to ``sweeps`` modulo k - j, k included.  At a
    sweep where columns leave, the run stops if none is left, and if at most
    half of the running columns are still to leave, those go on alone.
    Returns the number of running columns at every sweep run, and each
    column's period and the sweep it repeated at, 0 where it has not
    repeated by ``sweeps``.
    """
    width = b_rows[0].shape[1]
    running = np.arange(width)
    leave, period, hit = np.zeros((3, width), dtype=np.int64)
    sizes = []
    for k in range(1, sweeps + 1):
        sizes.append(running.size)
        j = _kept_before(k)
        fresh = running[(leave[running] == 0) & (b_rows[k][:, running] == b_rows[j][:, running]).all(axis=0)]
        period[fresh], hit[fresh] = k - j, k
        leave[fresh] = k + (sweeps - k) % (k - j)
        if np.any(leave[running] == k):
            still = running[(leave[running] == 0) | (leave[running] > k)]
            if not still.size:
                break
            if 2 * still.size <= running.size:
                running = still
    return sizes, period, hit


def _assert_sweeps_as_predicted(engine, ns, trajectory, b_rows, sweeps, widths):
    """``engine.sweep`` equals the reference's trajectory bit for bit and runs the batches :func:`_batches` predicts."""
    widths.clear()
    got = engine.sweep(ns, sweeps)
    ref_ms, ref_ns, ref_values = trajectory[sweeps]
    for x, y in zip(got, (to_columns(ref_ms), to_columns(ref_ns), ref_values)):
        assert np.array_equal(_bits(x), _bits(y))
    predicted = _batches(b_rows, sweeps)
    # A's kernel and B's run once a sweep, on a lone column held twice
    assert widths[::2] == widths[1::2] == [max(size, 2) for size in predicted[0]]
    return predicted


@pytest.mark.parametrize("rows, seed", [(1, 192), (9, 207)])
def test_sweep_stops_once_every_column_repeats_and_equals_the_reference_at_every_count(rows, seed):
    # a column's B rows fix its later sweeps; once it has matched the rows
    # kept before it, it runs only until a count congruent to the sweeps
    # asked for modulo its period, and narrower batches run only the columns
    # still to leave
    rng = np.random.default_rng(seed)
    periods, lags, never = set(), set(), 0
    for engine, reference, ms, ns, k_a, k_b in _engine_cases(rng, rows):
        trajectory = _trajectory(reference, ms, ns, k_a, k_b, 60)
        b_rows, widths = _b_rows(trajectory), _record_kernel_widths(engine)
        for sweeps in range(1, 61):
            _, period, hit = _assert_sweeps_as_predicted(engine, ns, trajectory, b_rows, sweeps, widths)
            repeated = period > 0
            periods.update(period[repeated].tolist())
            lags.update(np.minimum((sweeps - hit[repeated]) % period[repeated], 1).tolist())
        never += not period.all()
    # fixed points, 2-cycles and longer cycles, leaving with and without sweeps left to run
    assert {1, 2} <= periods and lags == {0, 1}
    assert max(periods) > 2
    assert never > 0


def test_narrowed_batches_equal_the_row_major_reference_bit_for_bit():
    # 1600 restarts that reach a fixed point first, 400 that reach one later
    # and one that does not repeat within 40 sweeps, picked from random
    # starts by their reference trajectories: the batch narrows once the
    # first ones have left, and again to the lone column
    rng = np.random.default_rng(3)
    game = random_game(rng, n_states=(2, 2))
    shared = random_density_matrix(4, rng)
    for engine in (_AngleEngine(game, shared), _SeesawEngine(game, shared, (2, 2))):
        if engine.__class__ is _AngleEngine:
            k, ms = 2, _unit_vectors(rng.uniform(0.0, math.pi, size=(2001, 2)))
            ns = engine.respond_b(ms)
        else:
            k, ms, ns = 4, *(engine.random_binary_families(rng, 2001, 2, 2) for _ in range(2))
        trajectory = _trajectory(RowMajorEngine(engine, game, shared), ms, ns, k, k, 40)
        _, period, hit = _batches(_b_rows(trajectory), 40)
        fixed = np.flatnonzero(period == 1)
        late = hit[fixed] == hit[fixed].max()
        groups = fixed[~late], fixed[late], np.flatnonzero(period == 0)
        assert all(group.size for group in groups)
        picks = np.concatenate([np.resize(group, size) for group, size in zip(groups, (1600, 400, 1))])
        ms, ns = np.ascontiguousarray(ms[:, picks]), np.ascontiguousarray(ns[:, picks])
        trajectory = [tuple(x[picks] for x in state) for state in trajectory]
        b_rows, widths = _b_rows(trajectory), _record_kernel_widths(engine)
        for sweeps in (9, 17, 26, 40):
            sizes = _assert_sweeps_as_predicted(engine, ns, trajectory, b_rows, sweeps, widths)[0]
        assert np.count_nonzero(np.diff(sizes)) >= 2 and sizes[-1] == 1


def test_best_restart_is_the_best_column_when_restarts_stop_at_different_sweeps():
    rng = np.random.default_rng(3)
    game = random_game(rng, n_states=(2, 2))
    shared = random_density_matrix(4, rng)
    engine = _SeesawEngine(game, shared, (2, 2))
    ms = engine.random_binary_families(rng, 9, 2, 2)
    ns = engine.random_binary_families(rng, 9, 2, 2)
    cfg = OptimizerConfig(refine_iterations=200)
    final_ms, final_ns, values = engine.sweep(ns, cfg.refine_iterations)
    best = int(np.argmax(values))
    b_rows = _b_rows(_trajectory(RowMajorEngine(engine, game, shared), ms, ns, 4, 4, cfg.refine_iterations))
    widths = _record_kernel_widths(engine)
    u, v = engine.best_restart(ns, cfg)
    assert np.array_equal(u, final_ms[:, best]) and np.array_equal(v, final_ns[:, best])
    # the batch narrows and stops as its columns predict
    sizes, _, hit = _batches(b_rows, cfg.refine_iterations)
    assert sum(widths) == 2 * sum(max(size, 2) for size in sizes)
    assert len(sizes) < cfg.refine_iterations
    # every restart repeats, at different sweeps
    assert hit.all() and np.unique(hit).size > 1


def test_seesaw_never_reads_a_start(game, singlet):
    # a restart is its B strategies, since A's first response is written
    # before it is read, so seesaw_optimize only takes A's draws, where B's
    # starts follow them in the stream
    cfg = OptimizerConfig(restarts=6, refine_iterations=30, seed=11)
    engine = _SeesawEngine(game, singlet, (2, 2))
    rng = np.random.default_rng(cfg.seed)
    engine.random_binary_families(rng, cfg.restarts, 2, 2)
    ns = engine.random_binary_families(rng, cfg.restarts, 2, 2)
    m, n = engine.best_restart(ns, cfg)
    profile, _ = seesaw_optimize(game, singlet, cfg)
    for family, coords, states in ((profile.family_a, m, game.states_a), (profile.family_b, n, game.states_b)):
        povms = engine.povms(coords, 2)
        for i, label in enumerate(states):
            assert np.array_equal(family[label].operators, povms[i])


def test_qubit_basis_uses_the_textbook_pauli_matrices():
    # sigma_y = [[0, -i], [i, 0]], so (I + a . sigma) / 2 has Bloch vector a
    paulis = np.array([[[1, 0], [0, 1]], [[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])
    assert np.array_equal(_hermitian_basis(2), paulis / math.sqrt(2.0))


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_hermitian_basis_is_orthonormal_and_coordinates_rebuild_the_matrix(dim):
    basis = _hermitian_basis(dim)
    assert basis.shape == (dim * dim, dim, dim)
    assert np.array_equal(basis, np.conj(np.swapaxes(basis, -1, -2)))
    gram = np.einsum("kij,lji->kl", basis, basis)
    np.testing.assert_allclose(gram, np.eye(dim * dim), rtol=0.0, atol=1e-15)
    rng = np.random.default_rng(180 + dim)
    g = rng.standard_normal((5, dim, dim)) + 1j * rng.standard_normal((5, dim, dim))
    h = g + np.conj(np.swapaxes(g, -1, -2))
    coords = _coordinates(basis, h)
    assert coords.dtype == np.float64
    np.testing.assert_allclose(np.einsum("...k,kij->...ij", coords, basis), h, rtol=0.0, atol=1e-14)


def test_optimize_angles_reaches_quantum_value(game, singlet):
    strategy, value = optimize_angles(game, singlet)
    assert value >= QUANTUM_TARGET - 1e-6
    assert value <= QUANTUM_TARGET + 1e-9
    # the winning angles reproduce the value through the public path
    assert evaluate_qubit_strategy(game, strategy, singlet) == pytest.approx(value, abs=1e-12)


def _kron_grid_payoffs(game, shared, axis):
    """Payoff of every angle vector on the full (m+n)-dimensional grid, via np.kron."""
    def projectors(t):
        m0 = np.array([math.cos(t), math.sin(t)])
        p0 = np.outer(m0, m0)
        return (p0, np.eye(2) - p0)

    # probs[i, j, a, b] = tr(rho (P_a(axis[i]) ox P_b(axis[j])))
    probs = np.array([[[[np.trace(shared.matrix @ np.kron(p, q)).real
                         for q in projectors(tb)] for p in projectors(ta)]
                       for tb in axis] for ta in axis])
    m, n = len(game.states_a), len(game.states_b)
    total = np.zeros((len(axis),) * (m + n))
    for f in range(m):
        for w in range(n):
            cell = np.einsum("ab,ijab->ij", game.payoff[:, :, f, w], probs)
            shape = [1] * (m + n)
            shape[f], shape[m + w] = len(axis), len(axis)
            total = total + game.prior_a[f] * game.prior_b[w] * cell.reshape(shape)
    return total


def test_optimize_angles_value_at_least_grid_best(game, singlet):
    cfg = OptimizerConfig(grid_points=6, refine_iterations=40, restarts=2, seed=5)
    _, value = optimize_angles(game, singlet, cfg)
    axis = np.linspace(0.0, math.pi, 6, endpoint=False)
    assert value >= _kron_grid_payoffs(game, singlet, axis).max() - 1e-12


def test_optimize_angles_deterministic(game, singlet):
    cfg = OptimizerConfig(grid_points=8, refine_iterations=60, restarts=3, seed=42)
    s1, v1 = optimize_angles(game, singlet, cfg)
    s2, v2 = optimize_angles(game, singlet, cfg)
    assert v1 == v2
    assert dict(s1.angles_a) == dict(s2.angles_a)
    assert dict(s1.angles_b) == dict(s2.angles_b)


@pytest.mark.parametrize("optimizer", [optimize_angles, seesaw_optimize])
def test_optimizers_take_no_threads_but_one(game, singlet, optimizer):
    with pytest.raises(InvalidConfig, match="threads must be 1, got 2: restarts run in the calling thread"):
        optimizer(game, singlet, threads=2)


def test_optimize_angles_on_maximally_mixed_has_no_advantage(game):
    cfg = OptimizerConfig(grid_points=6, refine_iterations=40, restarts=3, seed=3)
    _, value = optimize_angles(game, maximally_mixed(4), cfg)
    assert value <= 0.75 + 1e-9
    assert value == pytest.approx(0.5, abs=1e-9)


def test_optimize_angles_constant_payoff(singlet):
    constant = Game(("0", "1"), ("0", "1"), (0.5, 0.5), (0.5, 0.5), ("0", "1"), ("0", "1"),
                    np.full((2, 2, 2, 2), 0.625))
    cfg = OptimizerConfig(grid_points=4, refine_iterations=10, restarts=1, seed=0)
    _, value = optimize_angles(constant, singlet, cfg)
    assert value == pytest.approx(0.625, abs=1e-12)


def test_optimizer_config_validation():
    with pytest.raises(InvalidConfig):
        OptimizerConfig(grid_points=0)
    with pytest.raises(InvalidConfig):
        OptimizerConfig(restarts=-1)
    with pytest.raises(InvalidConfig):
        OptimizerConfig(seed=1.5)
    # np.random.default_rng raises ValueError on a negative seed, so the config refuses it first
    with pytest.raises(InvalidConfig, match=r"^seed must be an integer >= 0, got -2$"):
        OptimizerConfig(seed=-2)
    # bool is an int subclass
    for bad in ({"grid_points": True}, {"refine_iterations": True}, {"restarts": True},
                {"seed": True}, {"seed": -1}, {"seed": np.int64(-1)}):
        with pytest.raises(InvalidConfig):
            OptimizerConfig(**bad)
    # numpy integers are stored as Python ints
    cfg = OptimizerConfig(grid_points=np.int64(3), refine_iterations=np.int32(3), restarts=np.uint8(2),
                          seed=np.int64(0))
    assert all(type(getattr(cfg, name)) is int for name in ("grid_points", "refine_iterations", "restarts", "seed"))
    assert cfg.seed == 0


def test_optimize_angles_grid_cap(game, singlet):
    # the grid spans player A's 2 states only: 1001^2 points exceed the cap of 10^6
    with pytest.raises(InvalidConfig, match=r"1001\^2 points"):
        optimize_angles(game, singlet, OptimizerConfig(grid_points=1001))
    # as an np.int64, 65536 ** 4 wraps to 0, under the cap
    four_states = random_game(np.random.default_rng(5), n_states=(4, 2))
    with pytest.raises(InvalidConfig, match=r"65536\^4 points"):
        optimize_angles(four_states, singlet, OptimizerConfig(grid_points=np.int64(65536)))


def test_seesaw_reaches_quantum_value(game, singlet):
    cfg = OptimizerConfig(restarts=6, refine_iterations=60, seed=23)
    profile, value = seesaw_optimize(game, singlet, cfg)
    assert value >= QUANTUM_TARGET - 1e-6
    assert value <= QUANTUM_TARGET + 1e-9
    for fam in (profile.family_a, profile.family_b):
        for label in fam.labels:
            # rebuilding from the operators runs the POVM check again
            assert Measurement(fam[label].operators).n_outcomes == 2


def test_seesaw_constant_payoff_converges_in_one_sweep(singlet):
    constant = Game(("0", "1"), ("0", "1"), (0.5, 0.5), (0.5, 0.5), ("0", "1"), ("0", "1"),
                    np.full((2, 2, 2, 2), 0.3))
    engine = _SeesawEngine(constant, singlet, (2, 2))
    rng = np.random.default_rng(0)
    engine.random_binary_families(rng, 4, 2, 2)  # A's start, which a sweep never reads
    ns = engine.random_binary_families(rng, 4, 2, 2)
    _, _, values = engine.sweep(ns, 1)
    assert np.allclose(values, 0.3, atol=1e-12)


def test_seesaw_value_sequence_is_monotone(game, singlet):
    engine = _SeesawEngine(game, singlet, (2, 2))
    rng = np.random.default_rng(31)
    ms = engine.random_binary_families(rng, 16, 2, 2)
    ns = engine.random_binary_families(rng, 16, 2, 2)
    history = _value_history(engine, ms, ns, 50)
    assert np.diff(history, axis=0).min() >= -1e-12


def test_sweep_returns_the_state_after_the_last_sweep(game, singlet):
    # a run that stops once every restart repeats returns the state after all
    # its sweeps, so 15 sweeps and then 25 more are 40 sweeps to the last bit
    engine = _SeesawEngine(game, singlet, (2, 2))
    rng = np.random.default_rng(37)
    engine.random_binary_families(rng, 16, 2, 2)  # A's start, which a sweep never reads
    ns = engine.random_binary_families(rng, 16, 2, 2)
    whole = engine.sweep(ns, 40)
    split = engine.sweep(engine.sweep(ns, 15)[1], 25)
    for got, expected in zip(split, whole):
        assert np.array_equal(got, expected)
    assert np.array_equal(whole[2], engine.values(whole[0], whole[1]))


def test_angles_keep_gaining_past_a_sweep_that_gains_little(singlet):
    # a sweep can gain 1e-10 or less while later sweeps still gain more; the
    # last sweep's state reaches 0.46964533481130..., not the 0.4696453314 of
    # a restart stopped at its first such sweep
    game = random_game(np.random.default_rng(1), n_states=(2, 2))
    _, value = optimize_angles(game, singlet, OptimizerConfig(seed=0, refine_iterations=1000))
    assert value >= 0.46964533481 - 1e-12


def test_seesaw_engine_agrees_with_public_evaluation():
    rng = np.random.default_rng(131)
    for n_states in ((2, 2), (2, 3), (3, 2)):
        for dims in ((2, 2), (2, 3), (3, 2)):
            game = random_game(rng, n_states=n_states)
            dim = dims[0] * dims[1]
            for shared in (random_density_matrix(dim, rng), random_pure_density(dim, rng)):
                engine = _SeesawEngine(game, shared, dims)
                ms = engine.random_binary_families(rng, 4, n_states[0], dims[0])
                ns = engine.random_binary_families(rng, 4, n_states[1], dims[1])
                for m, n, batch_value in zip(ms.T, ns.T, engine.values(ms, ns)):
                    povms_a, povms_b = engine.povms(m, dims[0]), engine.povms(n, dims[1])
                    profile = QuantumStrategyProfile(
                        shared,
                        MeasurementFamily({s: Measurement(tuple(povms_a[i]))
                                           for i, s in enumerate(game.states_a)}),
                        MeasurementFamily({s: Measurement(tuple(povms_b[i]))
                                           for i, s in enumerate(game.states_b)}),
                    )
                    slow = expected_payoff(game, behavior_from_profile(profile, game))
                    assert batch_value == pytest.approx(slow, abs=1e-12)


def _nonneg_projectors(hermitian):
    """Projectors onto the eigenvalues >= -TOL_PSD, by eigendecomposition."""
    w, u = np.linalg.eigh(hermitian)
    return np.einsum("...ie,...e,...je->...ij", u, (w >= -1e-9).astype(float), np.conj(u))


def test_qubit_projector_matches_eigendecomposition(game):
    rng = np.random.default_rng(139)
    for dim in (2, 3):
        engine = _SeesawEngine(game, maximally_mixed(dim * dim), (dim, dim))
        h = rng.standard_normal((200, 1, dim, dim)) + 1j * rng.standard_normal((200, 1, dim, dim))
        h = h + np.conj(np.swapaxes(h, -1, -2))
        # multiples of the identity on both sides of the -TOL_PSD cut; the
        # cut is on eigenvalues, so -8e-10 I stays at outcome 0 although its
        # qubit coordinate on I / sqrt 2 is -8e-10 * sqrt 2 < -TOL_PSD
        cuts = np.array([-1.0, -2e-9, -8e-10, -5e-10, 0.0, 5e-10, 1.0])
        h[:7, 0] = np.eye(dim) * cuts[:, None, None]
        # the 200 draws as one restart's 200 states, so povms takes them at once
        coords = _coordinates(engine.bases[dim], h).reshape(200, -1)
        response = engine.povms(engine.best(np.ascontiguousarray(coords.T), dim).T.reshape(-1), dim)
        assert np.abs(response[:, 0] - _nonneg_projectors(h)[:, 0]).max() < 1e-12


def test_seesaw_starts_match_eigendecomposition_of_gaussian_draws(game):
    for dims in ((2, 2), (3, 3), (2, 3)):
        engine = _SeesawEngine(game, maximally_mixed(dims[0] * dims[1]), dims)
        starts = engine.random_binary_families(np.random.default_rng(41), 12, 3, dims[0])
        rng = np.random.default_rng(41)
        g = rng.standard_normal((12, 3, dims[0], dims[0])) \
            + 1j * rng.standard_normal((12, 3, dims[0], dims[0]))
        expected = _nonneg_projectors((g + np.conj(np.swapaxes(g, -1, -2))) / 2.0)
        povms = np.array([engine.povms(starts[:, r], dims[0]) for r in range(12)])
        assert np.abs(povms[:, :, 0] - expected).max() < 1e-12
        assert np.abs(povms[:, :, 1] - (np.eye(dims[0]) - expected)).max() < 1e-12


def test_qubit_start_coordinates_equal_the_complex_einsum_bit_for_bit():
    # the real form sums the einsum's two nonzero terms per coordinate, so
    # only a zero's sign could differ: rows with exact zeros of either sign
    # and with entries that cancel (re00 = -re11, re01 = -re10, im01 = im10)
    # give zero coordinates, which the complex einsum always gives as +0.0
    rng = np.random.default_rng(59)
    re, im = rng.standard_normal((2, 120000, 2, 2))
    signed_zeros = np.where(rng.integers(0, 2, (2, 20000, 2, 2)) == 0, 0.0, -0.0)
    re[:20000] *= np.where(rng.integers(0, 3, (20000, 2, 2)) == 0, signed_zeros[0], 1.0)
    im[:20000] *= np.where(rng.integers(0, 3, (20000, 2, 2)) == 0, signed_zeros[1], 1.0)
    re[20000:40000] = signed_zeros[0]
    im[20000:40000] = signed_zeros[1]
    re[40000:60000, 1, 1] = -re[40000:60000, 0, 0]
    re[60000:80000, 1, 0] = -re[60000:80000, 0, 1]
    im[80000:100000, 1, 0] = im[80000:100000, 0, 1]
    g = re + 1j * im
    expected = _coordinates(_hermitian_basis(2), (g + g.swapaxes(-1, -2).conj()) / 2.0)
    got = _qubit_coordinates(re, im)
    assert np.array_equal(_bits(got), _bits(expected))
    # the special rows reach zero coordinates, so the sign rule is exercised
    assert np.count_nonzero(expected[:100000] == 0.0) > 10000


def test_seesaw_on_qutrits_is_monotone():
    rng = np.random.default_rng(43)
    game = random_game(rng, n_states=(2, 3))
    shared = random_density_matrix(9, rng)
    cfg = OptimizerConfig(restarts=8, refine_iterations=30, seed=47)
    # the starts seesaw_optimize draws for this config
    engine = _SeesawEngine(game, shared, (3, 3))
    start_rng = np.random.default_rng(cfg.seed)
    ms = engine.random_binary_families(start_rng, cfg.restarts, 2, 3)
    ns = engine.random_binary_families(start_rng, cfg.restarts, 3, 3)
    history = _value_history(engine, ms, ns, cfg.refine_iterations)
    assert np.diff(history, axis=0).min() >= -1e-12
    _, v1 = seesaw_optimize(game, shared, cfg, dims=(3, 3))
    assert v1 == pytest.approx(history[-1].max(), abs=1e-12)


_BELL = np.array([[1, 0, 0, 1], [1, 0, 0, -1], [0, 1, 1, 0], [0, 1, -1, 0]]) / _SQRT2
_PAULIS = np.array([[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])


def _bell_diagonal_cases(alpha):
    """20 Bell-diagonal states with Dirichlet(alpha) weights, each with its CHSH value max(3/4, 1/2 + sqrt(t1^2 + t2^2) / 4).

    t1 >= t2 are the two largest singular values of the correlation matrix
    T_ij = tr(rho (sigma_i x sigma_j)) (Horodecki, Horodecki and Horodecki,
    Phys. Lett. A 200, 340, 1995); the marginals are maximally mixed, so
    the best local answers are worth 3/4.
    """
    rng = np.random.default_rng(2)
    for _ in range(20):
        rho = np.einsum("k,ki,kj->ij", rng.dirichlet(np.full(4, alpha)), _BELL, _BELL)
        corr = np.einsum("ij,abji->ab", rho, np.einsum("aik,bjl->abijkl", _PAULIS, _PAULIS).reshape(3, 3, 4, 4)).real
        t = np.linalg.svd(corr, compute_uv=False)
        yield DensityMatrix(rho), max(0.75, 0.5 + math.hypot(t[0], t[1]) / 4.0)


def test_seesaw_equals_the_closed_form_on_bell_diagonal_states(game):
    # every uniform Dirichlet draw of this seed has t1^2 + t2^2 <= 1, so the
    # exact check is of the 3/4 floor
    for shared, closed in _bell_diagonal_cases(1.0):
        _, value = seesaw_optimize(game, shared, OptimizerConfig(seed=0))
        assert abs(value - closed) <= 1e-12
    # weights near a vertex put most states above 3/4; where t2 and the third
    # singular value nearly tie the see-saw stalls up to 2.1e-7 short, even
    # at 20000 sweeps, but it never passes the closed form
    above = 0
    for shared, closed in _bell_diagonal_cases(0.25):
        _, value = seesaw_optimize(game, shared, OptimizerConfig(seed=0))
        assert closed - 1e-6 <= value <= closed + 1e-12
        above += closed > 0.75 + 1e-3
    assert above >= 10


def test_angle_value_can_fall_below_the_classical_value(game, singlet):
    # traceless real-plane projective pairs leave out the deterministic answers (+-I)
    werner = DensityMatrix(0.5 * singlet.matrix + 0.5 * np.eye(4) / 4.0)
    _, angle_value = optimize_angles(game, werner, OptimizerConfig(seed=0))
    _, seesaw_value = seesaw_optimize(game, werner, OptimizerConfig(seed=0))
    assert angle_value == 0.676776695296637
    assert seesaw_value == 0.75


def test_seesaw_product_state_cannot_beat_classical(game):
    shared = DensityMatrix(np.kron(pure_state([1, 0]).matrix, pure_state([1, 0]).matrix))
    cfg = OptimizerConfig(restarts=8, refine_iterations=40, seed=7)
    _, value = seesaw_optimize(game, shared, cfg)
    assert value <= 0.75 + 1e-9


@pytest.mark.parametrize("dims,message", [
    ((-2, -2), r"dims \(-2, -2\) must each be at least 1"),
    ((0, 4), r"dims \(0, 4\) must each be at least 1"),
    ((2, 3), r"dims 2 \* 3 do not match state dim 4"),
])
def test_seesaw_rejects_bad_dims(game, singlet, dims, message):
    with pytest.raises(DimensionMismatch, match=message):
        seesaw_optimize(game, singlet, dims=dims)


def test_seesaw_requires_binary_actions(singlet):
    game3 = Game(("0",), ("0",), (1.0,), (1.0,), ("0", "1", "2"), ("0", "1"),
                 np.zeros((3, 2, 1, 1)))
    with pytest.raises(NonBinaryActions):
        seesaw_optimize(game3, singlet)


def test_seesaw_is_deterministic(game, singlet):
    cfg = OptimizerConfig(restarts=6, refine_iterations=30, seed=19)
    _, v1 = seesaw_optimize(game, singlet, cfg)
    _, v2 = seesaw_optimize(game, singlet, cfg)
    assert v1 == v2
