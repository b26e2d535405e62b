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
    validate_povm,
)
from qcoord.strategies import (
    OptimizerConfig,
    QuantumStrategyProfile,
    QubitAngleStrategy,
    _ZX,
    _AngleEngine,
    _SeesawEngine,
    _coordinate_sum,
    _coordinates,
    _hermitian_basis,
    _inner,
    _signed_weights,
    _unit_vectors,
    chsh_reference_strategy,
)
from qcoord.quantum import joint_distribution
from qcoord.sampling import random_density_matrix, random_game, random_povm, random_pure_density
from conftest import reference_families, singlet_table
from rowmajor import RowMajorEngine, to_columns, to_rows

QUANTUM_TARGET = math.cos(math.pi / 8) ** 2


@pytest.fixture(scope="module")
def game():
    return chsh_game()


@pytest.fixture(scope="module")
def singlet():
    return singlet_state()


def _value_history(engine, ms, ns, sweeps, tolerance):
    """Row k holds every restart's value after k sweeps, for k = 0..sweeps.

    Each run starts from the same start; a k-sweep run is a prefix of any
    longer run from it.
    """
    return np.array([engine.sweep(ms, ns, k, tolerance)[2] for k in range(sweeps + 1)])


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
        assert np.allclose(engine.local_a[:, 0], np.outer(wa, alpha).reshape(-1), atol=1e-12)
        assert np.allclose(engine.local_b[:, 0], np.outer(wb, beta).reshape(-1), atol=1e-12)
        coupling = np.einsum("fw,ij->fiwj", wab, corr).reshape(engine.to_a.shape)
        assert np.allclose(engine.to_a, coupling, atol=1e-12)
        assert np.allclose(engine.to_b, coupling.T, atol=1e-12)


def test_best_restart_is_the_earliest_best_row_at_any_thread_count(game, singlet):
    engine = _AngleEngine(game, singlet)
    rng = np.random.default_rng(149)
    us = _unit_vectors(rng.uniform(0.0, math.pi, size=(7, 2)))
    cfg = OptimizerConfig(refine_iterations=3)
    ms, ns, values = engine.sweep(us, engine.respond_b(us), 3, cfg.tolerance)
    # several restarts reach exactly the same value at different angles, so the tie rule decides
    best = int(np.argmax(values))
    assert np.count_nonzero(values == values[best]) > 1
    for threads in (1, 2, 3):
        u, v = engine.best_restart(us, engine.respond_b(us), cfg, threads)
        assert np.array_equal(u, ms[:, best]) and np.array_equal(v, ns[:, best])


def test_angle_sweep_value_sequence_is_monotone():
    rng = np.random.default_rng(127)
    for n_states in ((2, 2), (3, 2)):
        game = random_game(rng, n_states=n_states)
        engine = _AngleEngine(game, random_density_matrix(4, rng))
        us = _unit_vectors(rng.uniform(0, math.pi, size=(16, n_states[0])))
        history = _value_history(engine, us, engine.respond_b(us), 50, 1e-12)
        assert history.shape[0] > 2
        assert np.diff(history, axis=0).min() >= -1e-12


def _engine_cases(rng, rows):
    """Engines on random games with their row-major references and ``rows`` random starts.

    Angle engines with 1-3 states per player; see-saws at 2x2, 2x3 and 3x3
    on mixed and pure states, including a player with a single state.
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


@pytest.mark.parametrize("rows", [1, 9, 2001])
def test_sweeps_equal_the_row_major_reference_bit_for_bit(rows):
    # values that tie within rounding pick the best restart, so equal to the last bit
    rng = np.random.default_rng(151 + rows)
    sweeps = 6 if rows > 9 else 40
    for engine, reference, ms, ns, k_a, k_b in _engine_cases(rng, rows):
        final_ms, final_ns, values = engine.sweep(ms, ns, sweeps, 1e-10)
        ref_ms, ref_ns, ref_values = reference.sweep(to_rows(ms, k_a), to_rows(ns, k_b),
                                                     sweeps, 1e-10)
        assert np.array_equal(final_ms, to_columns(ref_ms))
        assert np.array_equal(final_ns, to_columns(ref_ns))
        assert np.array_equal(values, ref_values)
        assert np.array_equal(engine.values(ms, ns),
                              reference.values(to_rows(ms, k_a), to_rows(ns, k_b)))
        # the summation order follows the memory layout, so every strategy array is C order
        for strategies in (ms, ns, final_ms, final_ns, engine.respond_a(ns), engine.respond_b(ms)):
            assert strategies.flags.c_contiguous


def test_sub_batches_sweep_like_the_whole_batch():
    rng = np.random.default_rng(157)
    bounds = (0, 1, 8, 21, 521, 1001, 2001)
    for engine, _, ms, ns, _, _ in _engine_cases(rng, 2001):
        whole = engine.sweep(ms, ns, 5, 1e-10)
        parts = [engine.sweep(np.ascontiguousarray(ms[:, lo:hi]), np.ascontiguousarray(ns[:, lo:hi]),
                              5, 1e-10) for lo, hi in zip(bounds, bounds[1:])]
        for got, split in zip(whole, zip(*parts)):
            assert np.array_equal(got, np.concatenate(split, axis=-1))


def test_coordinate_sums_follow_numpys_row_order():
    # wide exponents make every change of summation order show
    rng = np.random.default_rng(163)
    for n in list(range(1, 41)) + [127, 128, 129, 136, 300]:
        for batch in (1, 2, 9, 128, 129, 2001):
            x = rng.standard_normal((batch, n)) * np.exp(rng.uniform(-30.0, 30.0, (batch, n)))
            y = rng.standard_normal((batch, n))
            columns = (np.ascontiguousarray(x.T), np.ascontiguousarray(y.T))
            assert np.array_equal(_coordinate_sum(columns[0]), x.sum(axis=-1))
            assert np.array_equal(_inner(*columns), (x * y).sum(axis=-1))


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


def test_optimize_angles_threads_do_not_change_results(game, singlet):
    cfg = OptimizerConfig(grid_points=8, refine_iterations=60, restarts=5, seed=17)
    _, serial = optimize_angles(game, singlet, cfg, threads=1)
    _, pooled = optimize_angles(game, singlet, cfg, threads=4)
    assert serial == pooled


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
        OptimizerConfig(tolerance=0.0)
    with pytest.raises(InvalidConfig):
        OptimizerConfig(seed=1.5)
    # bool is an int subclass, and an infinite tolerance froze every restart at its first sweep
    for bad in ({"grid_points": True}, {"refine_iterations": True}, {"restarts": True},
                {"seed": True}, {"tolerance": True}, {"tolerance": math.inf},
                {"tolerance": math.nan}):
        with pytest.raises(InvalidConfig):
            OptimizerConfig(**bad)


def test_optimize_angles_grid_cap(game, singlet):
    # the grid spans player A's 2 states only: 1001^2 points exceed the cap of 10^6
    with pytest.raises(InvalidConfig, match=r"1001\^2 points"):
        optimize_angles(game, singlet, OptimizerConfig(grid_points=1001))


def test_seesaw_reaches_quantum_value(game, singlet):
    cfg = OptimizerConfig(restarts=6, refine_iterations=60, seed=23)
    profile, value = seesaw_optimize(game, singlet, cfg)
    assert value >= QUANTUM_TARGET - 1e-6
    assert value <= QUANTUM_TARGET + 1e-9
    for fam in (profile.family_a, profile.family_b):
        for label in fam.labels:
            assert validate_povm(fam[label]).passed


def test_seesaw_constant_payoff_converges_in_one_sweep(singlet):
    constant = Game(("0", "1"), ("0", "1"), (0.5, 0.5), (0.5, 0.5), ("0", "1"), ("0", "1"),
                    np.full((2, 2, 2, 2), 0.3))
    engine = _SeesawEngine(constant, singlet, (2, 2))
    rng = np.random.default_rng(0)
    ms = engine.random_binary_families(rng, 4, 2, 2)
    ns = engine.random_binary_families(rng, 4, 2, 2)
    _, _, values = engine.sweep(ms, ns, 1, 1e-10)
    assert np.allclose(values, 0.3, atol=1e-12)


def test_seesaw_value_sequence_is_monotone(game, singlet):
    engine = _SeesawEngine(game, singlet, (2, 2))
    rng = np.random.default_rng(31)
    ms = engine.random_binary_families(rng, 16, 2, 2)
    ns = engine.random_binary_families(rng, 16, 2, 2)
    history = _value_history(engine, ms, ns, 50, 1e-12)
    assert np.diff(history, axis=0).min() >= -1e-12


def test_sweep_runs_every_sweep_and_freezes_converged_rows(game, singlet):
    engine = _SeesawEngine(game, singlet, (2, 2))
    rng = np.random.default_rng(37)
    ms = engine.random_binary_families(rng, 16, 2, 2)
    ns = engine.random_binary_families(rng, 16, 2, 2)
    history = _value_history(engine, ms, ns, 40, 1e-10)
    _, _, values = engine.sweep(ms, ns, 40, 1e-10)
    assert history.shape == (41, 16)
    gains = np.diff(history, axis=0)
    for row in range(16):
        frozen = np.nonzero(gains[:, row] <= 1e-10)[0]
        assert frozen.size, "every CHSH restart converges within 40 sweeps"
        assert np.all(history[frozen[0] + 1:, row] == values[row])


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


def test_seesaw_on_qutrits_is_monotone_and_thread_stable():
    rng = np.random.default_rng(43)
    game = random_game(rng, n_states=(2, 3))
    shared = random_density_matrix(9, rng)
    cfg = OptimizerConfig(restarts=8, refine_iterations=30, seed=47)
    # the starts seesaw_optimize draws for this config
    engine = _SeesawEngine(game, shared, (3, 3))
    start_rng = np.random.default_rng(cfg.seed)
    ms = engine.random_binary_families(start_rng, cfg.restarts, 2, 3)
    ns = engine.random_binary_families(start_rng, cfg.restarts, 3, 3)
    history = _value_history(engine, ms, ns, cfg.refine_iterations, cfg.tolerance)
    assert np.diff(history, axis=0).min() >= -1e-12
    _, v1 = seesaw_optimize(game, shared, cfg, dims=(3, 3))
    _, v3 = seesaw_optimize(game, shared, cfg, dims=(3, 3), threads=3)
    assert v1 == v3
    assert v1 == pytest.approx(history[-1].max(), abs=1e-12)


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


def test_seesaw_deterministic_and_thread_stable(game, singlet):
    cfg = OptimizerConfig(restarts=6, refine_iterations=30, seed=19)
    _, v1 = seesaw_optimize(game, singlet, cfg)
    _, v2 = seesaw_optimize(game, singlet, cfg)
    _, v3 = seesaw_optimize(game, singlet, cfg, threads=3)
    assert v1 == v2 == v3
