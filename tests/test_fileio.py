import json
import math
import re

import numpy as np
import pytest

from qcoord import ParseError, ValidationError, chsh_game, singlet_state
from qcoord.fileio import (
    distribution_to_dict,
    file_digest,
    game_to_dict,
    load_distribution,
    load_game,
    load_state,
    parse_angle,
    parse_angle_list,
    save_json,
)
from conftest import state_document


def test_game_round_trip(tmp_path):
    game = chsh_game()
    path = tmp_path / "game.json"
    save_json(game_to_dict(game), path)
    loaded = load_game(path)
    assert loaded.states_a == game.states_a
    assert loaded.actions_b == game.actions_b
    assert np.array_equal(loaded.payoff, game.payoff)
    assert np.array_equal(loaded.prior_a, game.prior_a)


def test_distribution_round_trip(tmp_path, chsh_quantum_dist):
    path = tmp_path / "dist.json"
    save_json(distribution_to_dict(chsh_quantum_dist), path)
    loaded = load_distribution(path)
    assert loaded.phi_labels == chsh_quantum_dist.phi_labels
    assert np.allclose(loaded.table, chsh_quantum_dist.table, atol=0)


def test_state_round_trip(tmp_path):
    path = tmp_path / "state.json"
    save_json(state_document(singlet_state()), path)
    loaded = load_state(path)
    assert np.allclose(loaded.matrix, singlet_state().matrix, atol=0)


def test_load_game_rejects_bad_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    with pytest.raises(ParseError, match="invalid JSON"):
        load_game(path)


def test_load_game_missing_field(tmp_path):
    doc = game_to_dict(chsh_game())
    del doc["prior_b"]
    path = tmp_path / "game.json"
    save_json(doc, path)
    with pytest.raises(ValidationError, match="prior_b"):
        load_game(path)


def _save_with_bare_numbers(doc, path):
    """``save_json``, with each string "bare:<token>" written as the bare token: 1e400, NaN, Infinity."""
    save_json(doc, path)
    path.write_text(re.sub(r'"bare:([^"]*)"', r"\1", path.read_text(encoding="utf-8")), encoding="utf-8")


def _non_finite(value) -> bool:
    """Whether a test document's field holds a bare non-finite number token."""
    return "bare:" in json.dumps(value)


def test_load_game_bad_prior_names_field(tmp_path):
    # each mistyped field is named itself, never raised as a raw TypeError or
    # blamed on 'payoff'; a number is a finite JSON number at its field's
    # depth, never a bool, a numeric string, NaN, Infinity or one beyond the
    # float range, and a label is a JSON string; an int too large for a float
    # is no OverflowError
    payoff = game_to_dict(chsh_game())["payoff"]
    payoff[0][1][0][0] = True
    infinite_payoff = game_to_dict(chsh_game())["payoff"]
    infinite_payoff[1][0][1][1] = "bare:-Infinity"
    cases = [("prior_a", [0.5, 0.4]), ("states_a", 5), ("prior_b", {"a": 1}),
             ("prior_a", ["x", 0.5]), ("prior_a", [True, False]), ("prior_a", ["0.5", "0.5"]),
             ("prior_a", [[0.5, 0.5]]), ("states_a", ["0", 0.0]), ("payoff", payoff),
             ("prior_b", [10**400, 0]), ("format", True), ("prior_a", ["bare:1e400", 0.5]),
             ("prior_b", [0.5, "bare:NaN"]), ("prior_a", ["bare:Infinity", 0.0]),
             ("payoff", infinite_payoff)]
    for field, value in cases:
        doc = game_to_dict(chsh_game())
        doc[field] = value
        path = tmp_path / "game.json"
        _save_with_bare_numbers(doc, path)
        named = f"field '{field}' must be .* of finite numbers" if _non_finite(value) else f"(field '{field}'|{field}:)"
        with pytest.raises(ValidationError, match=f"^{re.escape(str(path))}: {named}"):
            load_game(path)
    # a state document's numbers pass the same check, named by their field
    doc = state_document(singlet_state())
    doc["matrix"][1][2][0] = "bare:NaN"
    path = tmp_path / "state.json"
    _save_with_bare_numbers(doc, path)
    with pytest.raises(ValidationError, match=f"^{re.escape(str(path))}: field 'matrix' must be arrays "
                                              "nested 3 deep of finite numbers"):
        load_state(path)


@pytest.mark.parametrize("field,value", [("s", 5), ("phi", None), ("psi", ["0", 1.0]),
                                         ("probabilities", ["0.25"] * 16),
                                         ("probabilities", ["bare:1e400"] + [0.0] * 15),
                                         ("probabilities", [0.0] * 15 + ["bare:NaN"]),
                                         ("probabilities", ["bare:Infinity"] + [0.0] * 15)])
def test_load_distribution_bad_labels_name_the_field(tmp_path, chsh_quantum_dist, field, value):
    doc = distribution_to_dict(chsh_quantum_dist)
    doc[field] = value
    path = tmp_path / "dist.json"
    _save_with_bare_numbers(doc, path)
    # the probabilities are finite numbers, never numeric strings
    what = "labels" if field != "probabilities" else "finite numbers" if _non_finite(value) else "numbers"
    with pytest.raises(ValidationError, match=f"^{re.escape(str(path))}: field '{field}' must be an array of {what}"):
        load_distribution(path)


def test_load_game_wrong_format_version(tmp_path):
    doc = game_to_dict(chsh_game())
    doc["format"] = 2
    path = tmp_path / "game.json"
    save_json(doc, path)
    with pytest.raises(ValidationError, match="format"):
        load_game(path)


def test_load_distribution_wrong_length(tmp_path, chsh_quantum_dist):
    doc = distribution_to_dict(chsh_quantum_dist)
    doc["probabilities"] = doc["probabilities"][:-1]
    path = tmp_path / "dist.json"
    save_json(doc, path)
    with pytest.raises(ValidationError, match="probabilities"):
        load_distribution(path)


def test_load_missing_file():
    with pytest.raises(ParseError):
        load_game("/nonexistent/path.game")


@pytest.mark.parametrize("token,expected", [
    ("0", 0.0),
    ("0.5", 0.5),
    ("-1.25", -1.25),
    ("1e-3", 1e-3),
    ("pi", math.pi),
    ("-pi", -math.pi),
    ("pi/8", math.pi / 8),
    ("-pi/8", -math.pi / 8),
    ("3pi/8", 3 * math.pi / 8),
    ("0.5pi", math.pi / 2),
    (" PI/4 ", math.pi / 4),
])
def test_parse_angle(token, expected):
    assert parse_angle(token) == pytest.approx(expected, abs=1e-15)


@pytest.mark.parametrize("token", [
    "junk", "", "pi/0", "pi/8/2", "2x", "--pi",
    # non-finite values, including pi-forms whose arithmetic overflows
    "nan", "inf", "-inf", "1e400",
    pytest.param("1" + "0" * 400 + "pi", id="overflowing-coefficient"),
    pytest.param("pi/0." + "0" * 320 + "1", id="overflowing-quotient"),
])
def test_parse_angle_rejects_garbage(token):
    with pytest.raises(ParseError):
        parse_angle(token)


def test_parse_angle_list():
    assert parse_angle_list("0, pi/4") == pytest.approx([0.0, math.pi / 4])
    with pytest.raises(ParseError):
        parse_angle_list(" , ")


def test_file_digest_is_stable(tmp_path):
    path = tmp_path / "x.json"
    path.write_text('{"format": 1}', encoding="utf-8")
    assert file_digest(path) == file_digest(path)
    assert len(file_digest(path)) == 64


def test_fixture_files_match_generators(fixtures_dir, chsh_quantum_dist):
    game = load_game(fixtures_dir / "chsh.game")
    assert np.array_equal(game.payoff, chsh_game().payoff)
    dist = load_distribution(fixtures_dir / "chsh-quantum.dist")
    assert np.allclose(dist.table, chsh_quantum_dist.table, atol=0)
    coin = load_distribution(fixtures_dir / "shared-coin.dist")
    assert coin.table.sum() == pytest.approx(1.0, abs=1e-12)
    copy_psi = load_distribution(fixtures_dir / "copy-psi.dist")
    assert copy_psi.table.max() == 0.25
