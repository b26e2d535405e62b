import dataclasses
import itertools
import math

import numpy as np
import pytest

from qcoord import (
    AlphabetCapExceeded,
    Game,
    JointSignalDistribution,
    NotDisjoint,
    NotStateConsistent,
    PayoffDependsOnPsi,
    ShapeMismatch,
    SolverLimitReached,
    Verdict,
    angle_family,
    check_classically_generated,
    check_disjoint,
    check_state_consistent,
    chsh_game,
    classical_value,
    classify,
    distribution_from_quantum,
    expected_signal_payoff,
    maximally_mixed,
    phi_only_game,
    theorem2_transform,
    verify_theorem2,
)
from qcoord import signals
from qcoord.tolerances import LP_TOL, MASS_FLOOR, VERTEX_CAP
from sampling import random_classical_signals, random_density_matrix
from conftest import chsh_embedded, joint_from_conditionals, singlet_table, stochastic_mixture

BINARY = ("0", "1")


def mixture_reconstruction(weights, shape) -> np.ndarray:
    """Conditionals rebuilt from a mixture of deterministic pairs with integer labels."""
    reconstruction = np.zeros(shape)
    for response_a, response_b, weight in weights:
        for phi, s_label in enumerate(response_a):
            for psi, t_label in enumerate(response_b):
                reconstruction[int(s_label), int(t_label), phi, psi] += weight
    return reconstruction


def own_marginals(dist):
    return dist.table.sum(axis=(0, 1, 3)), dist.table.sum(axis=(0, 1, 2))


def copy_psi_distribution():
    table = np.zeros((2, 2, 2, 2))
    for phi in range(2):
        for psi in range(2):
            table[psi, 0, phi, psi] = 0.25
    return JointSignalDistribution(BINARY, BINARY, BINARY, BINARY, table)


def shared_coin_distribution():
    table = np.zeros((2, 2, 2, 2))
    for x in (0, 1):
        for phi in (0, 1):
            for psi in (0, 1):
                table[phi ^ x, psi ^ x, phi, psi] += 0.125
    return JointSignalDistribution(BINARY, BINARY, BINARY, BINARY, table)


def random_quantum_distribution(rng, pure=False, n_phi=2, n_psi=2):
    from sampling import random_pure_density
    shared = random_pure_density(4, rng) if pure else random_density_matrix(4, rng)
    fam_a = angle_family({str(i): rng.uniform(0, math.pi) for i in range(n_phi)})
    fam_b = angle_family({str(i): rng.uniform(0, math.pi) for i in range(n_psi)})
    prior_a = rng.random(n_phi) + 0.2
    prior_a /= prior_a.sum()
    prior_b = rng.random(n_psi) + 0.2
    prior_b /= prior_b.sum()
    return distribution_from_quantum(shared, fam_a, fam_b, prior_a, prior_b), prior_a, prior_b


def test_quantum_distribution_matches_closed_form(chsh_quantum_dist):
    game = chsh_game()
    angles_a = {"0": 0.0, "pi/4": math.pi / 4}
    angles_b = {"-pi/8": -math.pi / 8, "pi/8": math.pi / 8}
    for fi, f in enumerate(game.states_a):
        for wi, w in enumerate(game.states_b):
            slice_ = chsh_quantum_dist.table[:, :, fi, wi]
            assert np.allclose(slice_, 0.25 * singlet_table(angles_a[f], angles_b[w]), atol=1e-10)


def test_maximally_mixed_distribution_is_flat():
    fam_a = angle_family({"0": 0.3, "1": 1.1})
    fam_b = angle_family({"0": 0.9, "1": 2.0})
    dist = distribution_from_quantum(maximally_mixed(4), fam_a, fam_b, (0.25, 0.75), (0.5, 0.5))
    expected = 0.25 * np.einsum("f,w->fw", [0.25, 0.75], [0.5, 0.5])
    assert np.allclose(dist.table, expected[None, None, :, :], atol=1e-12)


def test_product_state_distribution_is_classical():
    rng = np.random.default_rng(127)
    from qcoord import DensityMatrix
    rho_a = random_density_matrix(2, rng)
    rho_b = random_density_matrix(2, rng)
    shared = DensityMatrix(np.kron(rho_a.matrix, rho_b.matrix))
    fam_a = angle_family({"0": 0.2, "1": 1.3})
    fam_b = angle_family({"0": 0.6, "1": 2.4})
    dist = distribution_from_quantum(shared, fam_a, fam_b, (0.5, 0.5), (0.5, 0.5))

    # oracle: the conditionals factor exactly into local outcome distributions
    for fi, f in enumerate(fam_a.labels):
        pa = [np.trace(op @ rho_a.matrix).real for op in fam_a[f].operators]
        for wi, w in enumerate(fam_b.labels):
            pb = [np.trace(op @ rho_b.matrix).real for op in fam_b[w].operators]
            conditional = dist.table[:, :, fi, wi] * 4.0
            assert np.allclose(conditional, np.outer(pa, pb), atol=1e-10)

    assert check_classically_generated(dist).feasible


def test_check_disjoint_on_quantum_distributions():
    # 500 seeded quantum configurations never leak state information
    rng = np.random.default_rng(131)
    worst = 0.0
    for case in range(500):
        dist, _, _ = random_quantum_distribution(rng, pure=case % 2 == 0)
        worst = max(worst, check_disjoint(dist).max_violation)
    assert worst < 1e-10


def test_check_disjoint_flags_copy_psi():
    result = check_disjoint(copy_psi_distribution())
    assert not result.passed
    assert result.max_violation == pytest.approx(0.5, abs=1e-12)


def test_check_disjoint_independent_uniform_is_exact_zero():
    table = np.full((2, 2, 2, 2), 1.0 / 16.0)
    result = check_disjoint(JointSignalDistribution(BINARY, BINARY, BINARY, BINARY, table))
    assert result.passed
    assert result.max_violation == 0.0


def leak_loop(table, mass_floor):
    """Oracle: the per-event loop over (phi, s) of one player's leak."""
    worst = 0.0
    phi_mass = table.sum(axis=(0, 1, 3))
    phi_s = table.sum(axis=(1, 3))
    phi_psi = table.sum(axis=(0, 1))
    phi_s_psi = table.sum(axis=1)
    for fi in range(table.shape[2]):
        if phi_mass[fi] <= mass_floor:
            continue
        base = phi_psi[fi] / phi_mass[fi]
        for si in range(table.shape[0]):
            if phi_s[si, fi] <= mass_floor:
                continue
            conditioned = phi_s_psi[si, fi] / phi_s[si, fi]
            worst = max(worst, float(np.max(np.abs(conditioned - base))))
    return worst


def test_check_disjoint_is_bit_identical_to_the_per_event_loop():
    rng = np.random.default_rng(149)
    for case in range(300):
        shape = tuple(rng.integers(1, 4, size=4))
        table = rng.random(shape)
        # empty and sub-floor conditioning events on both sides
        table *= rng.random((shape[0], 1, shape[2], 1)) >= 0.3
        table *= np.where(rng.random((1, shape[1], 1, shape[3])) < 0.3, 1e-14, 1.0)
        if table.sum() == 0.0:
            continue
        dist = JointSignalDistribution(*(tuple(map(str, range(n))) for n in shape),
                                       table / table.sum())
        for mass_floor in (MASS_FLOOR, 0.05):
            expected = max(leak_loop(dist.table, mass_floor),
                           leak_loop(dist.table.transpose(1, 0, 3, 2), mass_floor))
            assert check_disjoint(dist, mass_floor=mass_floor).max_violation == expected


def test_signal_table_is_stored_in_c_order():
    # every marginal sum follows the memory layout, so a Fortran-ordered
    # input must give the results of its C-ordered copy bit for bit
    rng = np.random.default_rng(5)
    for n_out, n_states in ((2, 2), (3, 3), (2, 4)):
        dist = joint_from_conditionals(chsh_embedded(rng, n_out, n_states, n_states), rng)
        labels = (dist.s_labels, dist.t_labels, dist.phi_labels, dist.psi_labels)
        fortran = JointSignalDistribution(*labels, dist.table.T.copy().T)
        assert fortran.table.flags.c_contiguous
        assert check_disjoint(fortran) == check_disjoint(dist)
        pa, pb = dist.table.sum(axis=(0, 1, 3)), dist.table.sum(axis=(0, 1, 2))
        first, second = classify(fortran, pa, pb), classify(dist, pa, pb)
        assert first == second
        if first.locality is not None and first.locality.certificate is not None:
            assert np.array_equal(first.locality.certificate, second.locality.certificate)


def test_check_state_consistent_quantum(chsh_quantum_dist):
    game = chsh_game()
    assert check_state_consistent(chsh_quantum_dist, game.prior_a, game.prior_b).passed


def test_check_state_consistent_detects_distortion():
    table = np.zeros((2, 2, 2, 2))
    for phi, psi in itertools.product(range(2), repeat=2):
        mass = (0.6 if phi == 0 else 0.4) * 0.5
        table[0, 0, phi, psi] = mass / 2
        table[1, 1, phi, psi] = mass / 2
    dist = JointSignalDistribution(BINARY, BINARY, BINARY, BINARY, table)
    result = check_state_consistent(dist, (0.5, 0.5), (0.5, 0.5))
    assert not result.passed
    assert result.max_violation == pytest.approx(0.05, abs=1e-12)


def test_transform_output_is_state_consistent(chsh_quantum_dist):
    game = chsh_game()
    transformed = theorem2_transform(chsh_quantum_dist)
    assert check_state_consistent(transformed, game.prior_a, game.prior_b).passed


def test_uniform_conditionals_are_classical():
    table = np.full((2, 2, 2, 2), 1.0 / 16.0)
    result = check_classically_generated(
        JointSignalDistribution(BINARY, BINARY, BINARY, BINARY, table)
    )
    assert result.feasible
    total = sum(w for _, _, w in result.weights)
    assert total == pytest.approx(1.0, abs=1e-9)


def test_shared_coin_is_classical_with_sound_weights():
    dist = shared_coin_distribution()
    result = check_classically_generated(dist)
    assert result.feasible
    assert result.residual <= 1e-8

    # soundness: the returned mixture reconstructs the conditionals cellwise
    reconstruction = mixture_reconstruction(result.weights, dist.shape)
    conditionals = dist.table / dist.state_marginal()[None, None, :, :]
    assert np.max(np.abs(reconstruction - conditionals)) <= 1e-8


def test_quantum_distribution_is_not_classical(chsh_quantum_dist):
    result = check_classically_generated(chsh_quantum_dist)
    assert not result.feasible
    assert result.residual > 1e-6

    # independent certificate: the coordination functional scores above the
    # best classical vertex, so the point cannot lie in the hull
    game = chsh_game()
    functional = expected_signal_payoff(chsh_quantum_dist, game.payoff)
    assert functional == pytest.approx(math.cos(math.pi / 8) ** 2, abs=1e-10)
    assert functional > classical_value(game).value + 0.1


def test_entangled_certificate_separates_every_deterministic_pair():
    # CHSH on states 0 and 1 of player A, a third state of A that never
    # occurs: its cells fall below the mass floor and carry no functional
    rng = np.random.default_rng(3)
    q = chsh_embedded(rng, 2, 3, 2)
    table = q * np.array([0.5, 0.5, 0.0])[None, None, :, None] * 0.5
    dist = JointSignalDistribution(BINARY, BINARY, ("0", "1", "2"), BINARY, table)
    result = check_classically_generated(dist)
    assert not result.feasible
    y = result.certificate
    assert y.shape == q.shape
    assert np.all(y[:, :, 2, :] == 0.0)

    best_pair = max(
        sum(y[ra[f], rb[w], f, w] for f in range(3) for w in range(2))
        for ra in itertools.product(range(2), repeat=3)
        for rb in itertools.product(range(2), repeat=2)
    )
    on_q = float(np.sum(y[:, :, :2, :] * q[:, :, :2, :]))
    assert on_q - best_pair == pytest.approx(result.certificate_gap, abs=1e-12)
    assert result.certificate_gap > LP_TOL
    assert result.certificate_gap >= result.residual - 1e-9


def test_duals_that_do_not_separate_raise_solver_limit_reached(chsh_quantum_dist, monkeypatch):
    solve = signals.solve_lp

    def zero_duals(*args, **kwargs):
        result = solve(*args, **kwargs)
        return dataclasses.replace(result, duals=np.zeros_like(result.duals))

    monkeypatch.setattr(signals, "solve_lp", zero_duals)
    with pytest.raises(SolverLimitReached, match="separate"):
        check_classically_generated(chsh_quantum_dist)


def test_feasible_results_carry_no_certificate():
    result = check_classically_generated(shared_coin_distribution())
    assert result.feasible
    assert result.certificate is None and result.certificate_gap is None


def test_deterministic_mixture_on_1024_vertices_is_classical():
    # 2 signals x 5 states, a mixture of 3 deterministic pairs: the degenerate
    # shape that could exhaust the pivot limit of the dense-tableau solver
    rng = np.random.default_rng(11)
    dist = random_classical_signals(rng, n_phi=5, n_psi=5, n_hidden=3)
    result = classify(dist, *own_marginals(dist))
    assert result.verdict is Verdict.CLASSICALLY_GENERATED
    assert result.locality.residual <= LP_TOL
    conditionals = dist.table / dist.state_marginal()[None, None, :, :]
    reconstruction = mixture_reconstruction(result.locality.weights, dist.shape)
    assert np.max(np.abs(reconstruction - conditionals)) <= 1e-8


def test_deterministic_mixture_on_4096_vertices_is_classical_without_stalling():
    # a 3-pair mixture, whose hull program is highly degenerate; from the
    # best-fitting pair this table takes 311 pivots with one BLAS thread and
    # 1125 with two, as the pivot path follows the BLAS rounding
    rng = np.random.default_rng(14)
    dist = random_classical_signals(rng, n_phi=6, n_psi=6, n_hidden=3)
    result = classify(dist, *own_marginals(dist))
    assert result.verdict is Verdict.CLASSICALLY_GENERATED
    assert result.locality.residual <= LP_TOL
    assert result.locality.pivots < 1500
    conditionals = dist.table / dist.state_marginal()[None, None, :, :]
    reconstruction = mixture_reconstruction(result.locality.weights, dist.shape)
    assert np.max(np.abs(reconstruction - conditionals)) <= 1e-8


def test_hidden_variable_mixture_on_4096_vertices_is_classical():
    rng = np.random.default_rng(12)
    dist = joint_from_conditionals(stochastic_mixture(rng, 2, 6, 6), rng)
    assert classify(dist, *own_marginals(dist)).verdict is Verdict.CLASSICALLY_GENERATED


def test_chsh_embedded_on_4096_vertices_is_entangled():
    rng = np.random.default_rng(13)
    dist = joint_from_conditionals(chsh_embedded(rng, 2, 6, 6), rng)
    result = classify(dist, *own_marginals(dist))
    assert result.verdict is Verdict.ENTANGLED
    assert result.locality.certificate_gap >= result.locality.residual - 1e-9
    # the long step makes 663 pivots with one BLAS thread and 670 with two;
    # the plain ratio test alone makes 1226 and 1053
    assert result.locality.pivots < 900


def test_vertex_cap_is_checked_before_any_vertex_is_built(monkeypatch):
    def unreachable(*args):
        raise AssertionError("hull vertices built above the cap")

    monkeypatch.setattr(signals, "_response_table", unreachable)
    # 2^9 * 2^9 = 262144 vertices
    dist = joint_from_conditionals(np.full((2, 2, 9, 9), 0.25), np.random.default_rng(0))
    with pytest.raises(AlphabetCapExceeded, match="cap"):
        check_classically_generated(dist)
    assert 2 ** 18 > VERTEX_CAP


def test_classically_generated_requires_product_marginal():
    table = np.zeros((2, 2, 2, 2))
    table[0, 0, 0, 0] = 0.5
    table[1, 1, 1, 1] = 0.5
    dist = JointSignalDistribution(BINARY, BINARY, BINARY, BINARY, table)
    with pytest.raises(NotStateConsistent):
        check_classically_generated(dist)


def test_lp_completeness_on_random_classical_constructions():
    rng = np.random.default_rng(137)
    for _ in range(40):
        dist = random_classical_signals(
            rng,
            n_s=int(rng.integers(2, 4)),
            n_t=2,
            n_phi=int(rng.integers(2, 4)),
            n_psi=2,
        )
        assert check_classically_generated(dist).feasible


def test_classify_three_reference_cases(chsh_quantum_dist):
    game = chsh_game()
    quantum = classify(chsh_quantum_dist, game.prior_a, game.prior_b)
    assert quantum.verdict is Verdict.ENTANGLED
    assert quantum.locality.residual > 1e-6

    coin = shared_coin_distribution()
    classical = classify(coin, (0.5, 0.5), (0.5, 0.5))
    assert classical.verdict is Verdict.CLASSICALLY_GENERATED

    signalling = classify(copy_psi_distribution(), (0.5, 0.5), (0.5, 0.5))
    assert signalling.verdict is Verdict.SIGNALLING
    assert signalling.locality is None


def test_classify_stable_under_label_permutations(chsh_quantum_dist):
    rng = np.random.default_rng(139)
    game = chsh_game()
    for _ in range(8):
        perm_s, perm_t = rng.permutation(2), rng.permutation(2)
        perm_f, perm_w = rng.permutation(2), rng.permutation(2)
        table = chsh_quantum_dist.table[np.ix_(perm_s, perm_t, perm_f, perm_w)]
        dist = JointSignalDistribution(
            tuple(chsh_quantum_dist.s_labels[i] for i in perm_s),
            tuple(chsh_quantum_dist.t_labels[i] for i in perm_t),
            tuple(chsh_quantum_dist.phi_labels[i] for i in perm_f),
            tuple(chsh_quantum_dist.psi_labels[i] for i in perm_w),
            table,
        )
        result = classify(dist, game.prior_a[perm_f], game.prior_b[perm_w])
        assert result.verdict is Verdict.ENTANGLED


def test_transform_is_idempotent_on_product_form(chsh_quantum_dist):
    once = theorem2_transform(chsh_quantum_dist)
    twice = theorem2_transform(once)
    assert np.max(np.abs(twice.table - once.table)) <= 1e-12


def test_transform_preserves_stf_marginal(chsh_quantum_dist):
    transformed = theorem2_transform(chsh_quantum_dist)
    assert np.max(np.abs(transformed.table.sum(axis=3) - chsh_quantum_dist.table.sum(axis=3))) <= 1e-12


def test_transform_makes_t_independent(chsh_quantum_dist):
    transformed = theorem2_transform(chsh_quantum_dist)
    t_phi_psi = transformed.table.sum(axis=0)
    t_marginal = transformed.table.sum(axis=(0, 2, 3))
    state_marginal = transformed.state_marginal()
    product = np.einsum("t,fw->tfw", t_marginal, state_marginal)
    assert np.max(np.abs(t_phi_psi - product)) <= 1e-12


def test_disjoint_inputs_satisfy_the_lemma_precondition():
    # for disjoint state-consistent signals, p(t | phi) does not depend on phi
    rng = np.random.default_rng(149)
    for _ in range(20):
        dist, _, _ = random_quantum_distribution(rng)
        t_given_phi = dist.table.sum(axis=(0, 3)) / dist.table.sum(axis=(0, 1, 3))[None, :]
        spread = np.max(np.abs(t_given_phi - t_given_phi[:, :1]))
        assert spread <= 1e-10


def test_verify_theorem2_on_the_quantum_distribution(chsh_quantum_dist):
    report = verify_theorem2(phi_only_game(), chsh_quantum_dist)
    assert report.difference <= 1e-10
    assert report.transformed_classification.verdict is Verdict.CLASSICALLY_GENERATED
    assert report.passed

    # oracle: both payoffs recomputed with explicit loops
    game = phi_only_game()
    transformed = theorem2_transform(chsh_quantum_dist)
    for dist, reported in ((chsh_quantum_dist, report.payoff_original),
                           (transformed, report.payoff_transformed)):
        total = 0.0
        for s, t, f, w in itertools.product(range(2), repeat=4):
            total += game.payoff[s, t, f, w] * dist.table[s, t, f, w]
        assert reported == pytest.approx(total, abs=1e-14)


def test_transform_matches_hidden_variable_construction(chsh_quantum_dist):
    # the transform's conditionals equal p(t) * p(s | t, phi), the explicit
    # shared-randomness construction with x := t
    p = chsh_quantum_dist.table
    transformed = theorem2_transform(chsh_quantum_dist)
    conditionals = transformed.table / transformed.state_marginal()[None, None, :, :]

    t_marginal = p.sum(axis=(0, 2, 3))
    st_phi = p.sum(axis=3)                       # p(s, t, phi)
    t_phi = p.sum(axis=(0, 3))                   # p(t, phi)
    phi = p.sum(axis=(0, 1, 3))
    for s, t, f, w in itertools.product(range(2), repeat=4):
        s_given_t_phi = st_phi[s, t, f] / t_phi[t, f]
        assert conditionals[s, t, f, w] == pytest.approx(
            t_marginal[t] * s_given_t_phi, abs=1e-12
        )
    assert np.allclose(phi.sum(), 1.0)


def test_verify_theorem2_trivial_on_classical_input():
    report = verify_theorem2(phi_only_game(), shared_coin_distribution())
    assert report.passed


def test_verify_theorem2_constant_payoff(chsh_quantum_dist):
    game = chsh_game()
    constant = Game(game.states_a, game.states_b, game.prior_a, game.prior_b,
                    game.actions_a, game.actions_b, np.full((2, 2, 2, 2), 0.4))
    report = verify_theorem2(constant, chsh_quantum_dist)
    assert report.payoff_original == pytest.approx(0.4, abs=1e-12)
    assert report.payoff_transformed == pytest.approx(0.4, abs=1e-12)


def test_verify_theorem2_rejects_psi_dependence(chsh_quantum_dist):
    with pytest.raises(PayoffDependsOnPsi):
        verify_theorem2(chsh_game(), chsh_quantum_dist)


def test_verify_theorem2_rejects_signalling_input():
    with pytest.raises(NotDisjoint):
        verify_theorem2(phi_only_game(), copy_psi_distribution())


def test_verify_theorem2_rejects_mismatched_priors(chsh_quantum_dist):
    game = phi_only_game()
    skewed = Game(game.states_a, game.states_b, (0.7, 0.3), game.prior_b,
                  game.actions_a, game.actions_b, game.payoff)
    with pytest.raises(NotStateConsistent):
        verify_theorem2(skewed, chsh_quantum_dist)


def test_expected_signal_payoff_shape_check(chsh_quantum_dist):
    with pytest.raises(ShapeMismatch):
        expected_signal_payoff(chsh_quantum_dist, np.zeros((2, 2, 2, 3)))


def test_theorem2_holds_for_random_quantum_distributions():
    rng = np.random.default_rng(151)
    for _ in range(10):
        dist, prior_a, prior_b = random_quantum_distribution(rng)
        payoff = np.repeat(rng.random((2, 2, 2, 1)), 2, axis=3)
        game = Game(dist.phi_labels, dist.psi_labels, prior_a, prior_b,
                    ("0", "1"), ("0", "1"), payoff)
        report = verify_theorem2(game, dist)
        assert report.difference <= 1e-10
        assert report.transformed_classification.verdict is Verdict.CLASSICALLY_GENERATED
