import dataclasses
import itertools
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from qcoord import (
    AlphabetCapExceeded,
    Game,
    JointSignalDistribution,
    MeasurementFamily,
    NotDisjoint,
    NotStateConsistent,
    PayoffDependsOnPsi,
    ShapeMismatch,
    SolverLimitReached,
    Verdict,
    angle_family,
    check_disjoint,
    check_state_consistent,
    chsh_game,
    classical_value,
    classify,
    distribution_from_quantum,
    expected_signal_payoff,
    maximally_mixed,
    phi_only_game,
    singlet_state,
    theorem2_transform,
    verify_theorem2,
)
from qcoord import signals
from qcoord.cli import EXIT_CHECK_FAILED, EXIT_OK, main
from qcoord.fileio import distribution_to_dict, game_to_dict, save_json
from qcoord.tolerances import LP_TOL, MASS_FLOOR, VERTEX_CAP
from sampling import random_classical_signals, random_density_matrix
from conftest import (chsh_embedded, joint_from_conditionals, reference_families, singlet_table,
                      stochastic_mixture)

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

    assert signals._hull_membership(dist, LP_TOL).feasible


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
        swapped = dist.table.transpose(1, 0, 3, 2)
        for mass_floor in (MASS_FLOOR, 0.05):
            assert signals._leak(dist.table, mass_floor) == leak_loop(dist.table, mass_floor)
            assert signals._leak(swapped, mass_floor) == leak_loop(swapped, mass_floor)
        expected = max(leak_loop(dist.table, MASS_FLOOR), leak_loop(swapped, MASS_FLOOR))
        assert check_disjoint(dist).max_violation == expected


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
    result = signals._hull_membership(JointSignalDistribution(BINARY, BINARY, BINARY, BINARY, table),
                                      LP_TOL)
    assert result.feasible
    total = sum(w for _, _, w in result.weights)
    assert total == pytest.approx(1.0, abs=1e-9)


def test_shared_coin_is_classical_with_sound_weights():
    dist = shared_coin_distribution()
    result = signals._hull_membership(dist, LP_TOL)
    assert result.feasible
    assert result.residual <= 1e-8

    # soundness: the returned mixture reconstructs the conditionals cellwise
    reconstruction = mixture_reconstruction(result.weights, dist.shape)
    conditionals = dist.table / dist.state_marginal()[None, None, :, :]
    assert np.max(np.abs(reconstruction - conditionals)) <= 1e-8


def test_quantum_distribution_is_not_classical(chsh_quantum_dist):
    result = signals._hull_membership(chsh_quantum_dist, LP_TOL)
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
    result = signals._hull_membership(dist, LP_TOL)
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
        signals._hull_membership(chsh_quantum_dist, LP_TOL)


def test_feasible_results_carry_no_certificate():
    result = signals._hull_membership(shared_coin_distribution(), LP_TOL)
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
    # best-fitting pair this table takes 202 pivots
    rng = np.random.default_rng(14)
    dist = random_classical_signals(rng, n_phi=6, n_psi=6, n_hidden=3)
    result = classify(dist, *own_marginals(dist))
    assert result.verdict is Verdict.CLASSICALLY_GENERATED
    assert result.locality.residual <= LP_TOL
    assert result.locality.pivots < 1000
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
    # the long step makes 385 pivots; the plain ratio test alone makes 1155
    assert result.locality.pivots < 900


def test_4096_vertex_verdicts_are_the_same_bytes_at_one_and_two_blas_threads(tmp_path):
    # the pivot path, and so lp_pivots and lp_residual, must not follow the
    # BLAS rounding; the thread count is read when numpy loads, so each run
    # is its own process
    rng = {seed: np.random.default_rng(seed) for seed in (12, 13, 14)}
    tables = {
        "hidden-variable": joint_from_conditionals(stochastic_mixture(rng[12], 2, 6, 6), rng[12]),
        "chsh-embedded": joint_from_conditionals(chsh_embedded(rng[13], 2, 6, 6), rng[13]),
        "three-pair": random_classical_signals(rng[14], n_phi=6, n_psi=6, n_hidden=3),
    }
    src = str(Path(signals.__file__).resolve().parents[1])
    for name, dist in tables.items():
        path = tmp_path / f"{name}.dist"
        save_json(distribution_to_dict(dist), path)
        outputs = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                       PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
            run = subprocess.run([sys.executable, "-m", "qcoord.cli", "classify", str(path), "--json"],
                                 capture_output=True, env=env, check=True)
            outputs.append(run.stdout)
        assert json.loads(outputs[0])["extra"]["lp_pivots"]["phase2"] > 0, name
        assert outputs[0] == outputs[1], name


def test_deterministic_mixture_on_65536_vertices_is_classical_without_stalling():
    # a 3-pair mixture at 8 x 8 states; while degenerate steps kept the plain
    # ratio test this table took 31392 pivots.  The long step on every
    # Dantzig pivot takes 164
    rng = np.random.default_rng(44)
    dist = random_classical_signals(rng, n_phi=8, n_psi=8, n_hidden=3)
    result = classify(dist, *own_marginals(dist))
    assert result.verdict is Verdict.CLASSICALLY_GENERATED
    assert result.locality.residual <= LP_TOL
    assert result.locality.pivots < 1000


def test_vertex_cap_is_checked_before_any_vertex_is_built(monkeypatch):
    def unreachable(*args):
        raise AssertionError("hull vertices built above the cap")

    monkeypatch.setattr(signals, "_response_table", unreachable)
    # 2^9 * 2^9 = 262144 vertices
    dist = joint_from_conditionals(np.full((2, 2, 9, 9), 0.25), np.random.default_rng(0))
    with pytest.raises(AlphabetCapExceeded, match="cap"):
        signals._hull_membership(dist, LP_TOL)
    assert 2 ** 18 > VERTEX_CAP


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
        assert signals._hull_membership(dist, LP_TOL).feasible


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


def _assert_checked_table(dist):
    """The public constructor stores the same bytes the package stored without its check."""
    checked = JointSignalDistribution(dist.s_labels, dist.t_labels, dist.phi_labels,
                                      dist.psi_labels, dist.table)
    assert (checked.s_labels, checked.t_labels, checked.phi_labels, checked.psi_labels) == \
        (dist.s_labels, dist.t_labels, dist.phi_labels, dist.psi_labels)
    assert checked.table.dtype == dist.table.dtype == float and checked.shape == dist.shape
    assert checked.table.tobytes() == dist.table.tobytes()
    assert dist.table.flags.c_contiguous and not dist.table.flags.writeable


@pytest.mark.parametrize("dims", [(2, 2), (2, 3)])
def test_quantum_distributions_pass_the_table_check_unchanged(dims):
    from sampling import random_povm, random_prior, random_pure_density
    rng = np.random.default_rng(191 + dims[1])

    def family(dim, n_states):
        # projective pairs exist here only for qubits; any side may take 3-outcome POVMs
        if dim == 2 and rng.random() < 0.5:
            return angle_family({str(i): rng.uniform(0.0, math.pi) for i in range(n_states)})
        return MeasurementFamily({str(i): random_povm(dim, 3, rng) for i in range(n_states)})

    for case in range(40):
        dim = dims[0] * dims[1]
        shared = random_pure_density(dim, rng) if case % 2 else random_density_matrix(dim, rng)
        n_phi, n_psi = (int(n) for n in rng.integers(1, 4, size=2))
        dist = distribution_from_quantum(shared, family(dims[0], n_phi), family(dims[1], n_psi),
                                         random_prior(n_phi, rng), random_prior(n_psi, rng))
        _assert_checked_table(dist)
        _assert_checked_table(theorem2_transform(dist))


def test_transforms_of_random_tables_pass_the_table_check_unchanged():
    rng = np.random.default_rng(197)
    checked = 0
    while checked < 200:
        shape = tuple(int(n) for n in rng.integers(1, 4, size=4))
        table = rng.random(shape) * (rng.random(shape) < 0.8)
        if not table.any():
            continue
        table /= table.sum()
        if table.sum() != 1.0:
            continue
        # a signed zero or a negative in an empty cell, which the table check clamps to +0.0
        empty = (table == 0.0).nonzero()
        if len(empty[0]) and checked % 3:
            table[tuple(axis[0] for axis in empty)] = -0.0 if checked % 3 == 1 else -1e-12
        dist = JointSignalDistribution(*(tuple(map(str, range(n))) for n in shape), table)
        _assert_checked_table(theorem2_transform(dist))
        checked += 1


def test_theorem2_transform_of_a_table_heavier_than_one_is_not_checked_again(chsh_quantum_dist):
    # the transform keeps the table's mass, here 1 + 0.9e-9, inside the table
    # check's 1e-9; the transform is not a document and is not checked again,
    # and a payoff that ignores psi takes the same value on both tables
    heavy = JointSignalDistribution(chsh_quantum_dist.s_labels, chsh_quantum_dist.t_labels,
                                    chsh_quantum_dist.phi_labels, chsh_quantum_dist.psi_labels,
                                    chsh_quantum_dist.table * (1 + 0.9e-9))
    assert theorem2_transform(heavy).table.sum() == pytest.approx(1 + 0.9e-9, abs=1e-15)
    report = verify_theorem2(phi_only_game(), heavy)
    assert report.transformed_classification.verdict is Verdict.CLASSICALLY_GENERATED
    assert report.passed and report.difference <= 1e-15


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


def phi_only_payoff_game(dist, prior_a, prior_b, rng):
    n_phi, n_psi = dist.shape[2:]
    payoff = np.repeat(rng.random((*dist.shape[:2], n_phi, 1)), n_psi, axis=3)
    return Game(dist.phi_labels, dist.psi_labels, prior_a, prior_b,
                dist.s_labels, dist.t_labels, payoff)


def quantum_theorem2_cases():
    """(game, distribution) pairs: 1-3 states a side, 2- and 3-outcome POVMs,
    pure and mixed states, skewed priors, and the CHSH fixture's distribution."""
    from sampling import random_povm, random_pure_density
    rng = np.random.default_rng(181)
    cases = []
    for n_phi, n_psi in itertools.product((1, 2, 3), repeat=2):
        for n_s, n_t in ((2, 2), (3, 2), (2, 3), (3, 3)):
            shared = random_pure_density(4, rng) if len(cases) % 2 else random_density_matrix(4, rng)
            fam_a = MeasurementFamily({str(i): random_povm(2, n_s, rng) for i in range(n_phi)})
            fam_b = MeasurementFamily({str(i): random_povm(2, n_t, rng) for i in range(n_psi)})
            # skewed priors: one state carries most of the mass
            prior_a = rng.dirichlet(np.full(n_phi, 0.3)) * 0.99 + 0.01 / n_phi
            prior_b = rng.dirichlet(np.full(n_psi, 0.3)) * 0.99 + 0.01 / n_psi
            dist = distribution_from_quantum(shared, fam_a, fam_b, prior_a, prior_b)
            cases.append((phi_only_payoff_game(dist, prior_a, prior_b, rng), dist))
    game = phi_only_game()
    fam_a, fam_b = reference_families(chsh_game())
    cases.append((game, distribution_from_quantum(singlet_state(), fam_a, fam_b,
                                                  game.prior_a, game.prior_b)))
    return cases


def test_quantile_mixture_is_an_lp_feasible_local_model():
    for game, dist in quantum_theorem2_cases():
        report = verify_theorem2(game, dist)
        classification = report.transformed_classification
        locality = classification.locality
        assert report.passed
        assert classification.verdict is Verdict.CLASSICALLY_GENERATED
        assert locality.feasible and locality.pivots == 0
        assert locality.residual <= 1e-14
        n_s, n_t, n_phi, n_psi = dist.shape
        assert len(locality.weights) <= n_t * (n_phi * (n_s - 1) + 1)
        assert sum(w for _, _, w in locality.weights) == pytest.approx(1.0, abs=1e-14)
        assert all(len(set(response_b)) == 1 for _, response_b, _ in locality.weights)
        # the pieces rebuild the transform's conditionals
        transformed = theorem2_transform(dist)
        q = transformed.table / transformed.state_marginal()
        assert np.max(np.abs(mixture_reconstruction(locality.weights, dist.shape) - q)) <= 1e-14
        # the hull LP, an independent witness, agrees
        assert signals._hull_membership(transformed, LP_TOL).feasible


def test_verify_theorem2_solves_no_lp(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("verify_theorem2 called the LP solver")

    monkeypatch.setattr(signals, "solve_lp", refuse)
    for game, dist in quantum_theorem2_cases()[::6]:
        assert verify_theorem2(game, dist).passed


def t_given_phi_spread(table: np.ndarray) -> float:
    """n_psi sum_{phi, t} |p(t | phi) - p(t)|: the quantile model's residual on T(p)."""
    t_phi = table.sum(axis=(0, 3))
    return table.shape[3] * float(np.abs(t_phi / t_phi.sum(axis=0) - t_phi.sum(axis=1)[:, None]).sum())


def test_quantile_residual_is_the_t_given_phi_spread():
    # moving mass from t = 0 to t = 1 inside one (phi, psi) cell keeps the state
    # marginal and the disjointness check, but makes p(t | phi) depend on phi
    rng = np.random.default_rng(191)
    for _ in range(20):
        dist, prior_a, prior_b = random_quantum_distribution(rng, n_phi=int(rng.integers(2, 4)))
        table = dist.table.copy()
        s, phi = int(rng.integers(2)), int(rng.integers(dist.shape[2]))
        moved = rng.uniform(0.0, 1e-10)
        table[s, 0, phi, :] -= moved * prior_b
        table[s, 1, phi, :] += moved * prior_b
        perturbed = JointSignalDistribution(dist.s_labels, dist.t_labels, dist.phi_labels,
                                            dist.psi_labels, table)
        report = verify_theorem2(phi_only_payoff_game(dist, prior_a, prior_b, rng), perturbed)
        residual = report.transformed_classification.locality.residual
        assert residual == pytest.approx(t_given_phi_spread(table), abs=1e-15)
        assert residual > 0.0


def test_quantile_mixture_handles_empty_cells():
    # t = 2 never occurs, phi = 2 has no mass, and (t = 1, phi = 1) is empty
    # although p(t = 1) > 0, which only a non-disjoint table allows
    table = np.zeros((2, 3, 3, 2))
    table[0, 0, 0, :] = table[1, 1, 0, :] = 0.125
    table[1, 0, 1, :] = 0.25
    dist = JointSignalDistribution(BINARY, ("0", "1", "2"), ("0", "1", "2"), BINARY, table)
    with np.errstate(all="raise"):
        locality = signals._quantile_mixture(dist, LP_TOL)
    assert sum(w for _, _, w in locality.weights) == pytest.approx(1.0, abs=1e-15)
    assert all(response_b[0] != "2" for _, response_b, _ in locality.weights)
    assert locality.residual == pytest.approx(t_given_phi_spread(table[:, :, :2]), abs=1e-15)
    assert not locality.feasible

    # the same empty t and phi on a disjoint table pass verify_theorem2
    table = np.zeros((2, 3, 3, 2))
    table[0, 0, :2, :] = table[1, 1, :2, :] = 0.125
    dist = JointSignalDistribution(BINARY, ("0", "1", "2"), ("0", "1", "2"), BINARY, table)
    game = Game(dist.phi_labels, dist.psi_labels, (0.5, 0.5, 0.0), (0.5, 0.5),
                dist.s_labels, dist.t_labels, np.zeros(dist.shape))
    with np.errstate(all="raise"):
        report = verify_theorem2(game, dist)
    assert report.passed
    assert len(report.transformed_classification.locality.weights) == 2


def skewed_singlet_distribution(moved: float) -> JointSignalDistribution:
    """The CHSH singlet signals with prior (0.05, 0.95) on phi, and mass ``moved``
    shifted from t = 0 to t = 1 at phi = 0, half at each psi."""
    game = chsh_game()
    fam_a, fam_b = reference_families(game)
    dist = distribution_from_quantum(singlet_state(), fam_a, fam_b, (0.05, 0.95), game.prior_b)
    table = dist.table.copy()
    table[0, 0, 0, :] -= moved / 2
    table[0, 1, 0, :] += moved / 2
    return JointSignalDistribution(dist.s_labels, dist.t_labels, dist.phi_labels,
                                   dist.psi_labels, table)


def test_a_t_marginal_that_follows_phi_is_not_classically_generated(capsys, tmp_path):
    game = phi_only_game()
    game = Game(game.states_a, game.states_b, (0.05, 0.95), game.prior_b,
                game.actions_a, game.actions_b, game.payoff)
    leaky = skewed_singlet_distribution(2e-10)
    assert check_disjoint(leaky).max_violation == pytest.approx(3.8e-10, rel=1e-3)
    report = verify_theorem2(game, leaky)
    classification = report.transformed_classification
    assert classification.disjoint.passed
    assert classification.locality.residual == pytest.approx(1.6e-8, rel=1e-3)
    assert classification.verdict is Verdict.SIGNALLING
    assert not report.passed
    # the hull LP also finds the transform outside the hull
    assert not signals._hull_membership(theorem2_transform(leaky), LP_TOL).feasible

    report = verify_theorem2(game, skewed_singlet_distribution(1e-11))
    assert report.transformed_classification.locality.residual == pytest.approx(8e-10, rel=1e-3)
    assert report.passed

    # the theorem2 command exits 1 on the first and 0 on the second
    save_json(game_to_dict(game), tmp_path / "skewed.game")
    for moved, code in ((2e-10, EXIT_CHECK_FAILED), (1e-11, EXIT_OK)):
        save_json(distribution_to_dict(skewed_singlet_distribution(moved)), tmp_path / "t.dist")
        assert main(["theorem2", str(tmp_path / "skewed.game"), str(tmp_path / "t.dist"),
                     "--json"]) == code
        check = json.loads(capsys.readouterr().out)["checks"]["transform_classically_generated"]
        assert check["passed"] is (code == EXIT_OK)
