"""The precondition checks of the public API, one case each: the error class and a message naming its argument."""

import dataclasses
import math

import numpy as np
import pytest

from qcoord import (
    BehaviorTable,
    DimensionCapExceeded,
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


def _load_game_text(tmp_path, text):
    path = tmp_path / "doc.json"
    path.write_text(text, encoding="utf-8")
    return load_game(path)


def _load_state_matrix(tmp_path, matrix):
    path = tmp_path / "doc.json"
    save_json({**state_document(singlet_state()), "matrix": matrix}, path)
    return load_state(path)


_BINARY = ("0", "1")
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
    # a string or bytes object iterates as characters or codes, never as labels
    "labels a string": (lambda d: _game(states_a="ab"), ValidationError, "states_a: .* not str"),
    "labels bytes": (lambda d: _game(actions_a=b"01"), ValidationError, "actions_a: .* not bytes"),
    "signal labels a string": (lambda d: JointSignalDistribution("01", _BINARY, _BINARY, _BINARY,
                                                                 np.full((2, 2, 2, 2), 0.0625)),
                               ValidationError, "s_labels: .* not str"),
    "payoff shape": (lambda d: _game(payoff=np.zeros((2, 2, 2))), ValidationError, "payoff"),
    "payoff not finite": (lambda d: _game(payoff=np.full((2, 2, 2, 2), math.inf)), ValidationError, "payoff"),
    "behavior axes": (lambda d: BehaviorTable(np.ones((2, 2, 2))), ValidationError, "behavior"),
    "family empty": (lambda d: MeasurementFamily({}), ValidationError, "measurement family"),
    "family dimensions": (lambda d: MeasurementFamily({"a": _QUBIT, "b": _QUTRIT}), ValidationError,
                          "family mixes dimensions"),
    "family outcomes": (lambda d: MeasurementFamily({"a": _QUBIT, "b": _THREE_OUTCOMES}), ValidationError,
                        "family mixes outcome counts"),
    "state vector not finite": (lambda d: pure_state([math.nan, 1.0]), ValidationError, "state vector"),
    # the norm of [1e308, 1e308] is finite, but computing it overflows
    "state vector norm overflows": (lambda d: pure_state([1e308, 1e308]), ValidationError,
                                    "state vector norm overflows"),
    # 1e-160 squared is subnormal, so the normalized vector is off unit length by about 1e-5
    "state vector norm underflows": (lambda d: pure_state([1e-160, 0.0]), ValidationError,
                                     "density matrix trace differs from 1"),
    "state vector above the cap": (lambda d: pure_state(np.ones(65)), DimensionCapExceeded, "dimension 65"),
    "mixed dim a bool": (lambda d: maximally_mixed(True), ValidationError, "dim must be an integer"),
    "mixed dim not an integer": (lambda d: maximally_mixed(2.5), ValidationError, "dim must be an integer"),
    "mixed dim zero": (lambda d: maximally_mixed(0), ValidationError, "dim must be an integer of at least 1"),
    "mixed dim negative": (lambda d: maximally_mixed(-1), ValidationError, "dim must be an integer of at least 1"),
    "mixed dim above the cap": (lambda d: maximally_mixed(65), DimensionCapExceeded, "dimension 65"),
    "angle not finite": (lambda d: projective_pair(math.inf), ValidationError, "measurement angle"),
    "no choices": (lambda d: no_signalling_check(singlet_state(), [], _QUBIT), ValidationError,
                   "first-party measurement choice"),
    "choices mixed": (lambda d: no_signalling_check(_QUTRITS, [_QUBIT, _QUTRIT], _QUTRIT), DimensionMismatch,
                      "first-party choices"),
    "choices off the state": (lambda d: no_signalling_check(_QUTRITS, [_QUBIT], _QUBIT), DimensionMismatch,
                              "state dim 9"),
    "table shape": (lambda d: JointSignalDistribution(_BINARY, _BINARY, _BINARY, _BINARY,
                                                      np.full((2, 2, 2), 0.125)),
                    ValidationError, "table"),
    "families off the state": (lambda d: distribution_from_quantum(_QUTRITS, *reference_families(chsh_game()),
                                                                   [0.5, 0.5], [0.5, 0.5]),
                               DimensionMismatch, "state dim 9"),
    "theorem 2 shapes": (lambda d: verify_theorem2(chsh_game(), JointSignalDistribution(
                             ("0", "1", "2"), _BINARY, _BINARY, _BINARY, np.full((3, 2, 2, 2), 1 / 24))),
                         ShapeMismatch, "game shape"),
    "LP shapes": (lambda d: solve_lp([1.0, 1.0], np.ones((1, 3)), [1.0], basis=[0]), QcoordError,
                  "inconsistent LP shapes: A"),
    "angles empty": (lambda d: QubitAngleStrategy({}, {"0": 0.0}), ValidationError, "angles_a"),
    "angles not finite": (lambda d: QubitAngleStrategy({"0": 0.0}, {"0": math.nan}), ValidationError,
                          "angles_b"),
    "outcomes exceed actions": (lambda d: behavior_from_profile(QuantumStrategyProfile(
                                    singlet_state(), *reference_families(chsh_game())),
                                    _game(actions_b=["0"], payoff=np.zeros((2, 1, 2, 2)))),
                                IncompatibleLabels, r"outcomes \(2, 2\) exceed the game's actions \(2, 1\)"),
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
