import math

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


def test_load_game_bad_prior_names_field(tmp_path):
    doc = game_to_dict(chsh_game())
    doc["prior_a"] = [0.5, 0.4]
    path = tmp_path / "game.json"
    save_json(doc, path)
    with pytest.raises(ValidationError, match="prior_a"):
        load_game(path)


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


@pytest.mark.parametrize("token", ["junk", "", "pi/0", "pi/8/2", "2x", "--pi"])
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
