"""Two-player coordination games with private states of nature.

Both players receive independent private states, pick actions without
communicating, and share the single payoff ``payoff[a, b, state_a, state_b]``.
The classical value is the exact maximum of the expected payoff over all
deterministic strategy pairs, which also bounds every shared-randomness
strategy because the objective is linear in each player's behavior.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import tolerances as tol
from .errors import EnumerationCapExceeded, ShapeMismatch, ValidationError

# the C functions behind np.einsum (when not optimizing) and np.count_nonzero
# (without an axis), without the dispatch and Python wrappers that cost about
# as much as a contraction of a few small operands; the same loops, so the
# same bits
try:
    from numpy._core.multiarray import c_einsum as _einsum, count_nonzero as _count_nonzero
except ImportError:  # numpy 1.x
    from numpy.core.multiarray import c_einsum as _einsum, count_nonzero as _count_nonzero


def _real_array(values, name: str) -> np.ndarray:
    """``values`` as a float array; complex or non-numeric entries raise ``ValidationError``."""
    try:
        arr = np.asarray(values)
        if arr.dtype.kind == "c":
            raise ValidationError(f"{name}: expected real numbers, got complex entries")
        return arr if arr.dtype == np.float64 else arr.astype(float)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"{name}: expected real numbers: {exc}") from None


def _checked_probabilities(values: np.ndarray, axis, name: str) -> tuple:
    """The one rule for a probability table; returns the clamped table and its masses.

    Entries must be finite and at least -TOL_PSD; the rest of that band is
    clamped to zero.  The masses are the clamped table's sums over ``axis``
    (``None`` for the whole table), kept as length-1 axes so that
    ``clamped / masses`` renormalizes; each must be within TOL_PROB of 1.
    """
    if not np.isfinite(values).all():
        raise ValidationError(f"{name}: contains non-finite entries")
    low = float(values.min(initial=0.0))
    if low < -tol.TOL_PSD:
        raise ValidationError(f"{name}: probability {low:.3e} below -{tol.TOL_PSD}")
    clamped = np.maximum(values, 0.0)
    masses = clamped.sum(axis=axis, keepdims=True)
    off = np.abs(masses - 1.0)
    if off.max(initial=0.0) > tol.TOL_PROB:
        mass = float(masses.flat[int(off.argmax())])
        raise ValidationError(f"{name}: probabilities sum to {mass!r}, not 1")
    return clamped, masses


def _validate_prior(values, size: int, name: str) -> np.ndarray:
    arr = _real_array(values, name).reshape(-1)
    if arr.shape[0] != size:
        raise ValidationError(f"{name}: expected {size} entries, got {arr.shape[0]}")
    low = arr.min()
    if low < 0.0:  # a NaN passes here and is rejected by the rule
        raise ValidationError(f"{name}: negative probability {float(low)!r}")
    arr, total = _checked_probabilities(arr, None, name)
    arr = arr / total
    arr.setflags(write=False)
    return arr


def _validate_labels(values, name: str) -> tuple:
    try:
        labels = tuple(map(str, values))
    except TypeError:
        raise ValidationError(f"{name}: expected a sequence of labels, not {type(values).__name__}") from None
    if not labels:
        raise ValidationError(f"{name}: must be non-empty")
    if len(set(labels)) != len(labels):
        raise ValidationError(f"{name}: labels must be unique")
    return labels


@dataclass(frozen=True)
class Game:
    """States of nature, independent priors, action sets and the joint payoff."""

    states_a: tuple
    states_b: tuple
    prior_a: np.ndarray
    prior_b: np.ndarray
    actions_a: tuple
    actions_b: tuple
    payoff: np.ndarray  # indexed [action_a, action_b, state_a, state_b]

    def __post_init__(self):
        object.__setattr__(self, "states_a", _validate_labels(self.states_a, "states_a"))
        object.__setattr__(self, "states_b", _validate_labels(self.states_b, "states_b"))
        object.__setattr__(self, "actions_a", _validate_labels(self.actions_a, "actions_a"))
        object.__setattr__(self, "actions_b", _validate_labels(self.actions_b, "actions_b"))
        object.__setattr__(self, "prior_a", _validate_prior(self.prior_a, len(self.states_a), "prior_a"))
        object.__setattr__(self, "prior_b", _validate_prior(self.prior_b, len(self.states_b), "prior_b"))
        pay = _real_array(self.payoff, "payoff")
        expected = (len(self.actions_a), len(self.actions_b), len(self.states_a), len(self.states_b))
        if pay.shape != expected:
            raise ValidationError(f"payoff: expected shape {expected}, got {pay.shape}")
        if not np.isfinite(pay).all():
            raise ValidationError("payoff: contains non-finite entries")
        pay = pay.copy()
        pay.setflags(write=False)
        object.__setattr__(self, "payoff", pay)

    @property
    def shape(self) -> tuple:
        return self.payoff.shape


@dataclass(frozen=True)
class BehaviorTable:
    """Conditional action distribution q(a, b | state_a, state_b)."""

    table: np.ndarray  # indexed [action_a, action_b, state_a, state_b]

    def __post_init__(self):
        q = _real_array(self.table, "behavior")
        if q.ndim != 4:
            raise ValidationError(f"behavior: expected 4 axes, got shape {q.shape}")
        q, sums = _checked_probabilities(q, (0, 1), "behavior")
        q = q / sums
        q.setflags(write=False)
        object.__setattr__(self, "table", q)

    @property
    def shape(self) -> tuple:
        return self.table.shape


def expected_payoff(game: Game, behavior: BehaviorTable) -> float:
    """Prior-weighted expected payoff of a behavior."""
    if behavior.shape != game.shape:
        raise ShapeMismatch(f"behavior shape {behavior.shape} vs game shape {game.shape}")
    return float(
        _einsum("abfw,abfw,f,w->", game.payoff, behavior.table, game.prior_a, game.prior_b)
    )


@dataclass(frozen=True)
class ClassicalSolution:
    """Exact optimum over deterministic strategy pairs."""

    value: float
    strategy_a: dict  # state label -> action label
    strategy_b: dict


# entries of one block's score array in _best_deterministic_pair
_SCORE_BLOCK = 1 << 16


def _response_table(n_actions: int, n_states: int, start: int = 0, stop: int | None = None):
    """Deterministic responses state -> action with lexicographic indices start..stop-1.

    Row k is the response with index start + k, its first state most significant.
    """
    if stop is None:
        stop = n_actions ** n_states
    powers = n_actions ** np.arange(n_states - 1, -1, -1, dtype=np.int64)
    return (np.arange(start, stop, dtype=np.int64)[:, None] // powers) % n_actions


def _response_scores(weighted: np.ndarray, responses_a: np.ndarray) -> np.ndarray:
    """score[k, b, psi] = sum_phi weighted[responses_a[k, phi], b, phi, psi].

    With A's response fixed, the value of a response pair separates over B's
    states: it is sum_psi score[k, f_b(psi), psi].  The sum over phi runs in
    state order, so every caller sees the same rounding.
    """
    n_a, n_b, n_phi, n_psi = weighted.shape
    by_state = weighted.transpose(2, 0, 1, 3)        # [phi, a, b, psi]
    score = np.zeros((len(responses_a), n_b, n_psi))
    for phi in range(n_phi):
        score += by_state[phi].take(responses_a[:, phi], axis=0)
    return score


def _best_deterministic_pair(weighted: np.ndarray) -> tuple:
    """Maximize sum_{phi, psi} weighted[f_a(phi), f_b(psi), phi, psi] over response pairs.

    ``weighted[a, b, phi, psi]`` already carries the priors.  Returns the
    value and both responses as action-index tuples in state order; ties go
    to the lexicographically smallest encoding (A's responses, then B's).
    A's responses are scored in blocks, so memory stays bounded whatever
    their number.
    """
    n_a, n_b, n_phi, n_psi = weighted.shape
    total = n_a ** n_phi
    per_block = max(1, _SCORE_BLOCK // (n_b * n_psi))
    best_value = -math.inf
    best_fa = None
    best_fb = None
    for start in range(0, total, per_block):
        responses = _response_table(n_a, n_phi, start, min(start + per_block, total))
        score = _response_scores(weighted, responses)
        fb = score.argmax(axis=1)                    # [k, psi], first maximum
        rows = np.arange(len(responses))
        values = np.zeros(len(responses))
        for psi in range(n_psi):
            values += score[rows, fb[:, psi], psi]
        k = int(values.argmax())
        if values[k] > best_value:
            best_value = float(values[k])
            best_fa = tuple(int(a) for a in responses[k])
            best_fb = tuple(int(b) for b in fb[k])
    return best_value, best_fa, best_fb


def classical_value(game: Game) -> ClassicalSolution:
    """Enumerate deterministic strategy pairs and return the exact maximum.

    Because the objective is linear in each player's strategy the maximum
    over all shared-randomness behaviors is attained at a deterministic
    pair, so this enumeration is the exact classical value.  Ties are broken
    toward the lexicographically smallest encoding (player A's action
    indices in state order, then player B's).
    """
    n_a, n_b = len(game.actions_a), len(game.actions_b)
    n_phi, n_psi = len(game.states_a), len(game.states_b)
    pairs = (n_a ** n_phi) * (n_b ** n_psi)
    if pairs > tol.ENUMERATION_CAP:
        raise EnumerationCapExceeded(
            f"{pairs} strategy pairs exceed the cap {tol.ENUMERATION_CAP}")

    # weighted[a, b, phi, psi] folds both priors into the payoff
    weighted = game.payoff * game.prior_a[None, None, :, None] * game.prior_b[None, None, None, :]
    best_value, best_fa, best_fb = _best_deterministic_pair(weighted)
    return ClassicalSolution(
        value=best_value,
        strategy_a={game.states_a[i]: game.actions_a[a] for i, a in enumerate(best_fa)},
        strategy_b={game.states_b[i]: game.actions_b[b] for i, b in enumerate(best_fb)},
    )


CHSH_STATES_A = ("0", "pi/4")
CHSH_STATES_B = ("-pi/8", "pi/8")
CHSH_ANGLES_A = {"0": 0.0, "pi/4": math.pi / 4}
CHSH_ANGLES_B = {"-pi/8": -math.pi / 8, "pi/8": math.pi / 8}


def chsh_game() -> Game:
    """The binary coordination game with angle-valued states.

    Players win (payoff 1) by playing opposite actions, except in the single
    cell (state_a = pi/4, state_b = -pi/8) where they must play the same
    action.  States are uniform and independent.
    """
    payoff = np.zeros((2, 2, 2, 2))
    for a, b, f, w in itertools.product(range(2), repeat=4):
        same_required = (f, w) == (1, 0)
        won = (a == b) if same_required else (a != b)
        payoff[a, b, f, w] = 1.0 if won else 0.0
    return Game(
        states_a=CHSH_STATES_A,
        states_b=CHSH_STATES_B,
        prior_a=(0.5, 0.5),
        prior_b=(0.5, 0.5),
        actions_a=("0", "1"),
        actions_b=("0", "1"),
        payoff=payoff,
    )


def phi_only_game() -> Game:
    """The CHSH game's variant whose payoff ignores the second player's state.

    Players win by playing opposite actions when state_a is "0" and equal
    actions when it is "pi/4", whatever state_b is.
    """
    base = chsh_game()
    payoff = np.zeros((2, 2, 2, 2))
    for a, b, f in itertools.product(range(2), repeat=3):
        won = (a != b) if f == 0 else (a == b)
        payoff[a, b, f, :] = 1.0 if won else 0.0
    return Game(base.states_a, base.states_b, base.prior_a, base.prior_b,
                base.actions_a, base.actions_b, payoff)
