"""The precondition checks of the public API, one case each: the error class and a message naming its argument."""

import dataclasses
import math

import numpy as np
import pytest

from qcoord import (
    BehaviorTable,
    DimensionMismatch,
    IncompatibleLabels,
    JointSignalDistribution,
    Measurement,
    MeasurementFamily,
    QcoordError,
    QuantumStrategyProfile,
    QubitAngleStrategy,
    ShapeMismatch,
    ValidationError,
    angle_family,
    behavior_from_profile,
    chsh_game,
    distribution_from_quantum,
    evaluate_qubit_strategy,
    maximally_mixed,
    no_signalling_check,
    optimize_angles,
    partial_trace,
    projective_pair,
    pure_state,
    seesaw_optimize,
    singlet_state,
    verify_theorem2,
)
from qcoord.fileio import load_game, load_state, save_json
from qcoord.simplex import solve_lp
from conftest import reference_families, state_document


def _game(**changes):
    return dataclasses.replace(chsh_game(), **changes)


def _profile(**changes):
    fam_a, fam_b = reference_families(chsh_game())
    return QuantumStrategyProfile(singlet_state(), fam_a, fam_b, **changes)


def _load_game_text(tmp_path, text):
    path = tmp_path / "doc.json"
    path.write_text(text, encoding="utf-8")
    return load_game(path)


def _load_state_matrix(tmp_path, matrix):
    path = tmp_path / "doc.json"
    save_json({**state_document(singlet_state()), "matrix": matrix}, path)
    return load_state(path)


_QUBIT = projective_pair(0.0)
_QUTRIT = Measurement([np.diag([1.0, 0.0, 0.0]), np.diag([0.0, 1.0, 1.0])])
_THREE_OUTCOMES = Measurement([np.diag([1.0, 0.0]), np.diag([0.0, 0.5]), np.diag([0.0, 0.5])])
_QUTRITS = maximally_mixed(9)

# (call on a scratch directory, error class, what the message must name)
CASES = {
    "document not an object": (lambda d: _load_game_text(d, "[1]"), ValidationError,
                               r"doc\.json: top level"),
    "matrix ragged": (lambda d: _load_state_matrix(d, [[[1.0, 0.0], [0.0, 0.0]], [[0.0]]]),
                      ValidationError, r"doc\.json: field 'matrix'"),
    "matrix not square": (lambda d: _load_state_matrix(d, [[[1.0, 0.0]], [[0.0, 0.0]]]),
                          ValidationError, r"doc\.json: field 'matrix'"),
    "prior length": (lambda d: _game(prior_a=[0.2, 0.3, 0.5]), ValidationError, "prior_a"),
    "labels not a sequence": (lambda d: _game(states_a=5), ValidationError, "states_a"),
    "labels empty": (lambda d: _game(actions_a=[]), ValidationError, "actions_a"),
    "labels repeated": (lambda d: _game(actions_b=["0", "0"]), ValidationError, "actions_b"),
    "payoff shape": (lambda d: _game(payoff=np.zeros((2, 2, 2))), ValidationError, "payoff"),
    "payoff not finite": (lambda d: _game(payoff=np.full((2, 2, 2, 2), math.inf)), ValidationError, "payoff"),
    "behavior axes": (lambda d: BehaviorTable(np.ones((2, 2, 2))), ValidationError, "behavior"),
    "family empty": (lambda d: MeasurementFamily({}), ValidationError, "measurement family"),
    "family dimensions": (lambda d: MeasurementFamily({"a": _QUBIT, "b": _QUTRIT}), ValidationError,
                          "family mixes dimensions"),
    "family outcomes": (lambda d: MeasurementFamily({"a": _QUBIT, "b": _THREE_OUTCOMES}), ValidationError,
                        "family mixes outcome counts"),
    "state vector not finite": (lambda d: pure_state([math.nan, 1.0]), ValidationError, "state vector"),
    "angle not finite": (lambda d: projective_pair(math.inf), ValidationError, "measurement angle"),
    "partial trace keep": (lambda d: partial_trace(singlet_state(), 2, 2, keep="third"), ValidationError,
                           "keep"),
    "no choices": (lambda d: no_signalling_check(singlet_state(), [], _QUBIT), ValidationError,
                   "first-party measurement choice"),
    "choices mixed": (lambda d: no_signalling_check(_QUTRITS, [_QUBIT, _QUTRIT], _QUTRIT), DimensionMismatch,
                      "first-party choices"),
    "choices off the state": (lambda d: no_signalling_check(_QUTRITS, [_QUBIT], _QUBIT), DimensionMismatch,
                              "state dim 9"),
    "table shape": (lambda d: JointSignalDistribution("01", "01", "01", "01", np.full((2, 2, 2), 0.125)),
                    ValidationError, "table"),
    "families off the state": (lambda d: distribution_from_quantum(_QUTRITS, *reference_families(chsh_game()),
                                                                   [0.5, 0.5], [0.5, 0.5]),
                               DimensionMismatch, "state dim 9"),
    "theorem 2 shapes": (lambda d: verify_theorem2(chsh_game(), JointSignalDistribution(
                             "012", "01", "01", "01", np.full((3, 2, 2, 2), 1 / 24))),
                         ShapeMismatch, "game shape"),
    "LP shapes": (lambda d: solve_lp([1.0, 1.0], np.ones((1, 3)), [1.0], basis=[0]), QcoordError,
                  "inconsistent LP shapes: A"),
    "angles empty": (lambda d: QubitAngleStrategy({}, {"0": 0.0}), ValidationError, "angles_a"),
    "angles not finite": (lambda d: QubitAngleStrategy({"0": 0.0}, {"0": math.nan}), ValidationError,
                          "angles_b"),
    "action map length": (lambda d: _profile(outcome_to_action_a=(0,)), ValidationError,
                          "outcome_to_action_a"),
    "family B labels": (lambda d: behavior_from_profile(QuantumStrategyProfile(
                            singlet_state(), reference_families(chsh_game())[0],
                            angle_family({"x": 0.0, "y": 1.0})), chsh_game()),
                        IncompatibleLabels, "family B labels"),
    "evaluated off a qubit pair": (lambda d: evaluate_qubit_strategy(
                                       chsh_game(), QubitAngleStrategy({"0": 0.0}, {"0": 0.0}), _QUTRITS),
                                   DimensionMismatch, "shared state dim 9"),
    "strategy labels": (lambda d: evaluate_qubit_strategy(
                            chsh_game(), QubitAngleStrategy({"0": 0.0}, {"0": 0.0}), singlet_state()),
                        IncompatibleLabels, "strategy angle labels"),
    "angles off a qubit pair": (lambda d: optimize_angles(chsh_game(), _QUTRITS), DimensionMismatch,
                                "shared state dim 9"),
    "see-saw split": (lambda d: seesaw_optimize(chsh_game(), _QUTRITS), DimensionMismatch,
                      "dim-9 state; pass dims"),
}


@pytest.mark.parametrize("case", CASES)
def test_each_precondition_raises_its_class_naming_its_argument(tmp_path, case):
    call, error, named = CASES[case]
    with pytest.raises(error, match=named) as raised:
        call(tmp_path)
    assert type(raised.value) is error
