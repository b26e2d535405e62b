import itertools
import math

import numpy as np
import pytest

from qcoord import games, quantum
from qcoord import (
    BehaviorTable,
    EnumerationCapExceeded,
    Game,
    JointSignalDistribution,
    ShapeMismatch,
    ValidationError,
    chsh_game,
    classical_value,
    expected_payoff,
    joint_distribution,
    projective_pair,
    singlet_state,
)
from sampling import random_game, random_local_mixture_behavior
from conftest import singlet_table


def deterministic_behavior(fa, n_a, fb, n_b):
    """Behavior of the pure pair that plays fa[phi] and fb[psi]: a product of one-hot rows."""
    return BehaviorTable(np.einsum("fa,wb->abfw", np.eye(n_a)[list(fa)], np.eye(n_b)[list(fb)]))


def brute_force_pairs(game):
    """Oracle: enumerate every deterministic strategy pair directly."""
    n_a, n_b = len(game.actions_a), len(game.actions_b)
    n_phi, n_psi = len(game.states_a), len(game.states_b)
    best = -math.inf
    best_pair = None
    values = []
    for fa in itertools.product(range(n_a), repeat=n_phi):
        for fb in itertools.product(range(n_b), repeat=n_psi):
            value = expected_payoff(game, deterministic_behavior(fa, n_a, fb, n_b))
            values.append(value)
            if value > best:
                best = value
                best_pair = (fa, fb)
    return best, best_pair, values


def test_chsh_payoff_rule():
    game = chsh_game()
    # opposite actions required off the exceptional cell
    assert game.payoff[0, 1, 0, 1] == 1.0
    # equal actions required on the exceptional cell (pi/4, -pi/8)
    assert game.payoff[0, 0, 1, 0] == 1.0
    for a, b, f, w in itertools.product(range(2), repeat=4):
        expected = (a == b) if (f, w) == (1, 0) else (a != b)
        assert game.payoff[a, b, f, w] == (1.0 if expected else 0.0)


def test_chsh_classical_value_is_exactly_three_quarters():
    solution = classical_value(chsh_game())
    assert solution.value == 0.75


def test_chsh_classical_strategies_achieve_the_value():
    game = chsh_game()
    solution = classical_value(game)
    fa = tuple(game.actions_a.index(solution.strategy_a[s]) for s in game.states_a)
    fb = tuple(game.actions_b.index(solution.strategy_b[s]) for s in game.states_b)
    behavior = deterministic_behavior(fa, 2, fb, 2)
    assert expected_payoff(game, behavior) == pytest.approx(0.75, abs=1e-15)


def test_always_opposite_strategy_scores_three_quarters():
    game = chsh_game()
    behavior = deterministic_behavior((0, 0), 2, (1, 1), 2)
    assert expected_payoff(game, behavior) == pytest.approx(0.75, abs=1e-15)


def test_quantum_closed_form_behavior_beats_classical():
    game = chsh_game()
    angles_a = {"0": 0.0, "pi/4": math.pi / 4}
    angles_b = {"-pi/8": -math.pi / 8, "pi/8": math.pi / 8}
    q = np.zeros((2, 2, 2, 2))
    for fi, f in enumerate(game.states_a):
        for wi, w in enumerate(game.states_b):
            q[:, :, fi, wi] = singlet_table(angles_a[f], angles_b[w])
    value = expected_payoff(game, BehaviorTable(q))
    assert value == pytest.approx(math.cos(math.pi / 8) ** 2, abs=1e-12)


def test_uniform_behavior_payoff_is_weighted_average():
    rng = np.random.default_rng(61)
    game = random_game(rng, n_states=(3, 2), n_actions=(2, 3))
    uniform = BehaviorTable(np.full(game.shape, 1.0 / 6.0))
    expected = float(
        np.einsum("abfw,f,w->", game.payoff, game.prior_a, game.prior_b) / 6.0
    )
    assert expected_payoff(game, uniform) == pytest.approx(expected, abs=1e-12)


def test_expected_payoff_shape_mismatch():
    game = chsh_game()
    with pytest.raises(ShapeMismatch):
        expected_payoff(game, BehaviorTable(np.full((2, 2, 2, 3), 1.0 / 4.0)))


def test_expected_payoff_linear_in_behavior():
    rng = np.random.default_rng(67)
    game = random_game(rng)
    b1 = random_local_mixture_behavior(game, rng)
    b2 = random_local_mixture_behavior(game, rng)
    for lam in (0.0, 0.25, 0.6, 1.0):
        mixed = BehaviorTable(lam * b1.table + (1 - lam) * b2.table)
        direct = lam * expected_payoff(game, b1) + (1 - lam) * expected_payoff(game, b2)
        assert expected_payoff(game, mixed) == pytest.approx(direct, abs=1e-12)


def test_constant_payoff_game():
    game = Game(("f0",), ("w0", "w1"), (1.0,), (0.5, 0.5), ("a0", "a1"), ("b0", "b1"),
                np.full((2, 2, 1, 2), 0.375))
    solution = classical_value(game)
    assert solution.value == pytest.approx(0.375, abs=1e-15)


def test_match_own_state_game_is_winnable():
    payoff = np.zeros((2, 2, 2, 2))
    for a, b, f, w in itertools.product(range(2), repeat=4):
        payoff[a, b, f, w] = 1.0 if a == f else 0.0
    game = Game(("0", "1"), ("0", "1"), (0.5, 0.5), (0.5, 0.5), ("0", "1"), ("0", "1"), payoff)
    solution = classical_value(game)
    assert solution.value == pytest.approx(1.0, abs=1e-15)
    assert solution.strategy_a == {"0": "0", "1": "1"}


def test_classical_value_matches_pair_enumeration_oracle():
    rng = np.random.default_rng(71)
    for _ in range(25):
        shape = (int(rng.integers(2, 4)), int(rng.integers(2, 4)))
        actions = (int(rng.integers(2, 4)), int(rng.integers(2, 4)))
        game = random_game(rng, n_states=shape, n_actions=actions)
        oracle_value, oracle_pair, values = brute_force_pairs(game)
        solution = classical_value(game)
        assert solution.value == pytest.approx(oracle_value, abs=1e-12)
        ties = sum(1 for v in values if v > oracle_value - 1e-9)
        if ties == 1:
            fa = tuple(game.actions_a.index(solution.strategy_a[s]) for s in game.states_a)
            fb = tuple(game.actions_b.index(solution.strategy_b[s]) for s in game.states_b)
            assert (fa, fb) == oracle_pair


def _old_best_deterministic_pair(weighted):
    """The per-response loop that classical_value used before scoring in blocks."""
    n_a, n_b, n_phi, n_psi = weighted.shape
    best_value, best_fa, best_fb = -math.inf, None, None
    for fa in itertools.product(range(n_a), repeat=n_phi):
        score = np.zeros((n_b, n_psi))
        for phi, a in enumerate(fa):
            score += weighted[a, :, phi, :]
        fb = tuple(int(np.argmax(score[:, psi])) for psi in range(n_psi))
        value = float(sum(score[fb[psi], psi] for psi in range(n_psi)))
        if value > best_value:
            best_value, best_fa, best_fb = value, fa, fb
    return best_value, best_fa, best_fb


@pytest.mark.parametrize("block", [None, 1, 7])
def test_classical_value_is_bit_identical_to_the_per_response_loop(block, monkeypatch):
    if block is not None:
        monkeypatch.setattr(games, "_SCORE_BLOCK", block)
    rng = np.random.default_rng(97)
    for trial in range(60):
        n_a, n_b = (int(x) for x in rng.integers(1, 4, size=2))
        n_phi, n_psi = (int(x) for x in rng.integers(1, 5, size=2))
        shape = (n_a, n_b, n_phi, n_psi)
        if trial % 2:
            # small integer payoffs under uniform priors: many tied pairs
            payoff = rng.integers(0, 3, size=shape).astype(float)
            prior_a, prior_b = np.full(n_phi, 1.0 / n_phi), np.full(n_psi, 1.0 / n_psi)
        else:
            payoff = rng.standard_normal(shape)
            prior_a, prior_b = rng.dirichlet(np.ones(n_phi)), rng.dirichlet(np.ones(n_psi))
        game = Game(tuple(f"f{i}" for i in range(n_phi)), tuple(f"w{i}" for i in range(n_psi)),
                    prior_a, prior_b, tuple(f"a{i}" for i in range(n_a)),
                    tuple(f"b{i}" for i in range(n_b)), payoff)
        weighted = (game.payoff * game.prior_a[None, None, :, None]
                    * game.prior_b[None, None, None, :])
        value, fa, fb = _old_best_deterministic_pair(weighted)
        solution = classical_value(game)
        assert solution.value.hex() == value.hex()
        assert solution.strategy_a == {s: game.actions_a[a] for s, a in zip(game.states_a, fa)}
        assert solution.strategy_b == {s: game.actions_b[b] for s, b in zip(game.states_b, fb)}


def test_classical_value_ties_break_lexicographically():
    # every strategy pair scores the same, so the all-zeros pair must win
    game = Game(("f0", "f1"), ("w0",), (0.5, 0.5), (1.0,), ("x", "y"), ("u", "v"),
                np.ones((2, 2, 2, 1)))
    solution = classical_value(game)
    assert solution.strategy_a == {"f0": "x", "f1": "x"}
    assert solution.strategy_b == {"w0": "u"}


def test_classical_value_bounds_shared_randomness_behaviors():
    rng = np.random.default_rng(73)
    game = random_game(rng)
    bound = classical_value(game).value
    for _ in range(1000):
        behavior = random_local_mixture_behavior(game, rng, n_components=int(rng.integers(1, 6)))
        assert expected_payoff(game, behavior) <= bound + 1e-12


def test_classical_value_invariant_under_relabeling():
    rng = np.random.default_rng(79)
    game = random_game(rng, n_states=(2, 3), n_actions=(3, 2))
    base = classical_value(game).value
    for _ in range(10):
        perm_a = rng.permutation(3)
        perm_f = rng.permutation(2)
        perm_w = rng.permutation(3)
        shuffled = Game(
            states_a=tuple(game.states_a[i] for i in perm_f),
            states_b=tuple(game.states_b[i] for i in perm_w),
            prior_a=game.prior_a[perm_f],
            prior_b=game.prior_b[perm_w],
            actions_a=tuple(game.actions_a[i] for i in perm_a),
            actions_b=game.actions_b,
            payoff=game.payoff[np.ix_(perm_a, range(2), perm_f, perm_w)],
        )
        assert classical_value(shuffled).value == pytest.approx(base, abs=1e-12)


def test_enumeration_cap():
    payoff = np.zeros((2, 2, 12, 12))
    labels_12 = tuple(str(i) for i in range(12))
    prior = np.full(12, 1.0 / 12.0)
    game = Game(labels_12, labels_12, prior, prior, ("0", "1"), ("0", "1"), payoff)
    with pytest.raises(EnumerationCapExceeded):
        classical_value(game)


def test_prior_validation_names_the_field():
    with pytest.raises(ValidationError, match="prior_a"):
        Game(("0", "1"), ("0",), (0.5, 0.4), (1.0,), ("0", "1"), ("0", "1"),
             np.zeros((2, 2, 2, 1)))
    with pytest.raises(ValidationError, match="prior_b"):
        Game(("0",), ("0", "1"), (1.0,), (-0.2, 1.2), ("0", "1"), ("0", "1"),
             np.zeros((2, 2, 1, 2)))


def test_behavior_validation():
    with pytest.raises(ValidationError):
        BehaviorTable(np.full((2, 2, 1, 1), 0.3))
    with pytest.raises(ValidationError):
        BehaviorTable(np.array([[[[0.6]], [[0.6]]], [[[0.6]], [[-0.8]]]]))
    with pytest.raises(ValidationError, match="behavior: probabilities sum to 0.0, not 1"):
        BehaviorTable(np.zeros((0, 2, 1, 1)))


def _outcome_table(t, monkeypatch):
    # the trace rule's raw output is replaced by t, one (s, t) table
    monkeypatch.setattr(quantum, "_trace_pairs", lambda rho, first, second: t)
    return joint_distribution(singlet_state(), projective_pair(0.0), projective_pair(0.0))


# kind -> (shape of one four-entry distribution, builder, renormalized)
PROBABILITY_KINDS = {
    "prior": ((4,), lambda t, mp: games._validate_prior(t, 4, "prior_a"), True),
    "behavior": ((2, 2, 1, 1), lambda t, mp: BehaviorTable(t).table, True),
    "outcome tables": ((2, 2), _outcome_table, True),
    "signal distribution": (
        (2, 2, 1, 1),
        lambda t, mp: JointSignalDistribution(("0", "1"), ("0", "1"), ("x",), ("y",), t).table,
        False,
    ),
}


@pytest.mark.parametrize("kind", PROBABILITY_KINDS)
def test_one_probability_rule_per_kind(kind, monkeypatch):
    shape, build, renormalized = PROBABILITY_KINDS[kind]

    def table(*entries):
        t = np.full(4, 0.25)
        for index, value in entries:
            t[index] = value
        return t.reshape(shape)

    # an entry inside the clamping band, its mass moved to a neighbour
    noisy = table((0, -5e-10), (1, 0.5 + 5e-10))
    if kind == "prior":
        with pytest.raises(ValidationError, match="prior_a: negative probability"):
            build(noisy, monkeypatch)
    else:
        out = build(noisy, monkeypatch)
        clamped = np.clip(noisy, 0.0, None)
        assert out.flat[0] == 0.0
        if renormalized:
            np.testing.assert_allclose(out, clamped / clamped.sum(), rtol=1e-15, atol=0.0)
        else:
            np.testing.assert_array_equal(out, clamped)
            assert abs(out.sum() - 1.0) > 4e-10

    for bad, message in [
        (table((0, -2e-9), (1, 0.5 + 2e-9)), "below -1e-09|negative probability"),
        (table((0, 0.25 + 2e-9)), r"probabilities sum to 1\.000000002"),
        (table((0, np.nan)), "contains non-finite entries"),
    ]:
        with pytest.raises(ValidationError, match=message):
            build(bad, monkeypatch)
