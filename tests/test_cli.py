import json

import numpy as np
import pytest

from qcoord.cli import (
    EXIT_CHECK_FAILED,
    EXIT_OK,
    EXIT_PARSE,
    EXIT_PRECONDITION,
    EXIT_SOLVER,
    EXIT_VALIDATION,
    main,
)
from qcoord.fileio import game_to_dict, save_json
from qcoord import SolverLimitReached, chsh_game, signals, simplex


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_classical_value_command(capsys, fixtures_dir):
    code, out, _ = run(capsys, "classical-value", str(fixtures_dir / "chsh.game"))
    assert code == EXIT_OK
    assert "classical_value = 0.75" in out


def test_classical_value_json(capsys, fixtures_dir):
    code, out, _ = run(capsys, "classical-value", str(fixtures_dir / "chsh.game"), "--json")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["results"]["classical_value"] == 0.75
    assert payload["command"] == "classical-value"
    assert "sha256" in payload["inputs"]["game"]
    assert "wall_time" not in json.dumps(payload)


def test_classical_value_constant_game(capsys, tmp_path):
    doc = game_to_dict(chsh_game())
    doc["payoff"] = (np.full((2, 2, 2, 2), 0.25)).tolist()
    path = tmp_path / "const.game"
    save_json(doc, path)
    code, out, _ = run(capsys, "classical-value", str(path), "--json")
    assert code == EXIT_OK
    assert json.loads(out)["results"]["classical_value"] == 0.25


def test_malformed_prior_is_a_validation_error(capsys, tmp_path):
    doc = game_to_dict(chsh_game())
    doc["prior_a"] = [0.5, 0.4]
    path = tmp_path / "bad.game"
    save_json(doc, path)
    code, _, err = run(capsys, "classical-value", str(path))
    assert code == EXIT_VALIDATION
    assert "prior_a" in err


def test_unreadable_file_is_a_parse_error(capsys, tmp_path):
    path = tmp_path / "broken.game"
    path.write_text("{", encoding="utf-8")
    code, _, err = run(capsys, "classical-value", str(path))
    assert code == EXIT_PARSE
    assert "invalid JSON" in err


def test_quantum_optimize_singlet(capsys, fixtures_dir):
    code, out, _ = run(
        capsys, "quantum-optimize", str(fixtures_dir / "chsh.game"),
        "--state", "singlet", "--grid-points", "8", "--restarts", "3",
        "--refine-iterations", "60", "--json",
    )
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["results"]["angle_value"] >= 0.853552
    assert payload["results"]["seesaw_value"] >= 0.853552


def test_quantum_optimize_maximally_mixed(capsys, fixtures_dir):
    code, out, _ = run(
        capsys, "quantum-optimize", str(fixtures_dir / "chsh.game"),
        "--state", "maximally-mixed", "--grid-points", "6", "--restarts", "2",
        "--refine-iterations", "40", "--json",
    )
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["results"]["angle_value"] <= 0.750001
    assert payload["results"]["seesaw_value"] <= 0.750001


def test_quantum_optimize_non_binary_game(capsys, tmp_path):
    doc = game_to_dict(chsh_game())
    doc["actions_a"] = ["0", "1", "2"]
    doc["payoff"] = np.zeros((3, 2, 2, 2)).tolist()
    path = tmp_path / "wide.game"
    save_json(doc, path)
    code, _, err = run(capsys, "quantum-optimize", str(path))
    assert code == EXIT_PRECONDITION
    assert "NonBinaryActions" in err


def test_quantum_optimize_three_states_per_player_at_defaults(capsys, tmp_path):
    # the angle grid spans player A's states only: 24^3 points, well inside the cap
    from sampling import random_game
    path = tmp_path / "three.game"
    save_json(game_to_dict(random_game(np.random.default_rng(3), n_states=(3, 3))), path)
    code, out, err = run(capsys, "quantum-optimize", str(path), "--json")
    assert code == EXIT_OK, err
    results = json.loads(out)["results"]
    # the random payoffs lie in [0, 1), and so does every strategy's value
    assert 0.0 <= results["angle_value"] <= results["best_value"] < 1.0


def test_no_signalling_command(capsys):
    code, out, _ = run(
        capsys, "no-signalling", "--state", "singlet",
        "--alice", "0,pi/4", "--bob", "pi/8", "--json",
    )
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["results"]["max_marginal_deviation"] < 1e-12
    assert payload["checks"]["no_signalling"]["passed"] is True
    assert payload["extra"]["bob_marginal"] == pytest.approx([0.5, 0.5], abs=1e-12)


def test_no_signalling_malformed_angle(capsys):
    code, _, err = run(capsys, "no-signalling", "--alice", "0,oops", "--bob", "pi/8")
    assert code == EXIT_PARSE
    assert "oops" in err


def test_no_signalling_random_state_file(capsys, tmp_path):
    from conftest import state_document
    from sampling import random_density_matrix

    rng = np.random.default_rng(157)
    path = tmp_path / "random.state"
    save_json(state_document(random_density_matrix(4, rng)), path)
    angles = ",".join(str(x) for x in rng.uniform(0, 3.14, 3))
    bob = str(rng.uniform(0, 3.14))
    code, out, _ = run(capsys, "no-signalling", "--state", str(path),
                       "--alice", angles, "--bob", bob, "--json")
    assert code == EXIT_OK
    assert json.loads(out)["checks"]["no_signalling"]["passed"] is True


def test_text_and_json_numbers_agree_to_all_printed_digits(capsys, fixtures_dir):
    argv = ["classify", str(fixtures_dir / "chsh-quantum.dist")]
    _, text, _ = run(capsys, *argv)
    _, machine, _ = run(capsys, *argv, "--json")
    results = json.loads(machine)["results"]
    printed = {}
    for line in text.splitlines():
        if " = " in line:
            name, value = line.strip().split(" = ")
            printed[name] = value
    assert printed
    for name, value in printed.items():
        assert value == f"{results[name]:.10g}"


def test_classify_fixtures(capsys, fixtures_dir):
    for name, verdict in (
        ("chsh-quantum.dist", "Entangled"),
        ("shared-coin.dist", "ClassicallyGenerated"),
        ("copy-psi.dist", "Signalling"),
    ):
        code, out, _ = run(capsys, "classify", str(fixtures_dir / name), "--json")
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["verdicts"]["classification"] == verdict


def test_solver_limit_has_its_own_exit_code(capsys, fixtures_dir, monkeypatch):
    def exhausted(*args, **kwargs):
        raise SolverLimitReached("simplex pivot limit reached")

    monkeypatch.setattr(signals, "solve_lp", exhausted)
    code, _, err = run(capsys, "classify", str(fixtures_dir / "shared-coin.dist"))
    assert code == EXIT_SOLVER
    assert "SolverLimitReached" in err


def test_classify_exits_5_when_the_basis_turns_singular(capsys, fixtures_dir, monkeypatch):
    def singular(matrix):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(simplex.np.linalg, "inv", singular)
    code, _, err = run(capsys, "classify", str(fixtures_dir / "shared-coin.dist"))
    assert code == EXIT_SOLVER
    assert "SolverLimitReached" in err


def test_classify_reports_certificate_gap_and_pivots(capsys, fixtures_dir):
    code, out, _ = run(capsys, "classify", str(fixtures_dir / "chsh-quantum.dist"), "--json")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["extra"]["certificate_gap"] >= payload["results"]["lp_residual"] - 1e-9
    # the solver runs one phase from a feasible basis, so phase1 is always 0
    assert payload["extra"]["lp_pivots"]["phase1"] == 0
    assert payload["extra"]["lp_pivots"]["phase2"] > 0

    code, out, _ = run(capsys, "classify", str(fixtures_dir / "shared-coin.dist"), "--json")
    extra = json.loads(out)["extra"]
    assert "certificate_gap" not in extra
    assert set(extra["lp_pivots"]) == {"phase1", "phase2"}


def test_classify_prints_mixture_weights(capsys, fixtures_dir):
    code, out, _ = run(capsys, "classify", str(fixtures_dir / "shared-coin.dist"), "--json")
    assert code == EXIT_OK
    weights = json.loads(out)["extra"]["mixture_weights"]
    assert len(weights) <= 10
    assert sum(w["weight"] for w in weights) == pytest.approx(1.0, abs=1e-8)


def test_theorem2_command(capsys, fixtures_dir):
    code, out, _ = run(
        capsys, "theorem2", str(fixtures_dir / "phi-only.game"),
        str(fixtures_dir / "chsh-quantum.dist"), "--json",
    )
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["results"]["payoff_difference"] <= 1e-10
    assert payload["verdicts"]["classification"] == "ClassicallyGenerated"


def test_theorem2_rejects_psi_dependent_game(capsys, fixtures_dir):
    code, _, err = run(
        capsys, "theorem2", str(fixtures_dir / "chsh.game"),
        str(fixtures_dir / "chsh-quantum.dist"),
    )
    assert code == EXIT_PRECONDITION
    assert "PayoffDependsOnPsi" in err


def test_theorem2_rejects_signalling_distribution(capsys, fixtures_dir):
    code, _, err = run(
        capsys, "theorem2", str(fixtures_dir / "phi-only.game"),
        str(fixtures_dir / "copy-psi.dist"),
    )
    assert code == EXIT_PRECONDITION
    assert "NotDisjoint" in err


def test_demo_passes_and_shows_reference_digits(capsys):
    code, out, _ = run(capsys, "demo")
    assert code == EXIT_OK
    assert "0.7500000000" in out
    assert "0.8535533906" in out
    assert "Entangled" in out
    assert "FAIL" not in out


def test_demo_json_contains_all_checks(capsys):
    code, out, _ = run(capsys, "demo", "--json")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert len(payload["checks"]) == 8
    assert all(c["passed"] for c in payload["checks"].values())
    assert payload["verdicts"]["classification"] == "Entangled"


def test_json_output_is_deterministic(capsys, fixtures_dir):
    runs = {}
    for name, argv in {
        "demo": ["demo", "--json", "--seed", "5"],
        "classical": ["classical-value", str(fixtures_dir / "chsh.game"), "--json"],
        "optimize": ["quantum-optimize", str(fixtures_dir / "chsh.game"), "--json",
                     "--seed", "7", "--grid-points", "6", "--restarts", "2",
                     "--refine-iterations", "40"],
        "nosig": ["no-signalling", "--alice", "0,pi/4", "--bob", "pi/8", "--json"],
        "classify": ["classify", str(fixtures_dir / "chsh-quantum.dist"), "--json"],
        "theorem2": ["theorem2", str(fixtures_dir / "phi-only.game"),
                     str(fixtures_dir / "chsh-quantum.dist"), "--json"],
    }.items():
        _, first, _ = run(capsys, *argv)
        _, second, _ = run(capsys, *argv)
        assert first == second, f"{name} output varied between runs"
        runs[name] = first
    assert len(runs) == 6


def test_threads_flag_does_not_change_json(capsys, fixtures_dir):
    argv = ["quantum-optimize", str(fixtures_dir / "chsh.game"), "--json", "--seed", "3",
            "--grid-points", "6", "--restarts", "4", "--refine-iterations", "40"]
    _, serial, _ = run(capsys, *argv, "--threads", "1")
    _, pooled, _ = run(capsys, *argv, "--threads", "4")
    assert serial == pooled


def test_threads_do_not_change_json_at_2000_restarts(capsys, fixtures_dir):
    # every worker chunk is hundreds of restarts wide, none the lone restart of the test above
    argv = ["quantum-optimize", str(fixtures_dir / "chsh.game"), "--json", "--restarts", "2000"]
    _, serial, _ = run(capsys, *argv, "--threads", "1")
    _, pooled, _ = run(capsys, *argv, "--threads", "4")
    assert serial == pooled


@pytest.mark.parametrize("command,seed", [("quantum-optimize", "-1"), ("demo", "-2")])
def test_negative_optimizer_seed_is_a_precondition_error(capsys, fixtures_dir, command, seed):
    # numpy's generators reject negative seeds, which was an uncaught ValueError and exit 1
    game = [str(fixtures_dir / "chsh.game")] if command == "quantum-optimize" else []
    code, out, err = run(capsys, command, *game, "--seed", seed)
    assert code == EXIT_PRECONDITION
    assert out == ""
    assert err.startswith("error: InvalidConfig: seed must be an integer >= 0, got -")


def test_negative_seed_is_fine_where_nothing_is_random(capsys, fixtures_dir):
    code, out, _ = run(capsys, "classical-value", str(fixtures_dir / "chsh.game"), "--seed", "-2")
    assert code == EXIT_OK
    assert "classical_value = 0.75" in out


def test_opt_tolerance_is_no_option(capsys, fixtures_dir):
    with pytest.raises(SystemExit) as exit_info:
        main(["quantum-optimize", str(fixtures_dir / "chsh.game"), "--opt-tolerance", "1e-10"])
    assert exit_info.value.code == EXIT_PARSE
    assert "unrecognized arguments: --opt-tolerance" in capsys.readouterr().err


def test_bad_threads_value(capsys, fixtures_dir):
    code, _, err = run(capsys, "classical-value", str(fixtures_dir / "chsh.game"),
                       "--threads", "0")
    assert code == EXIT_PRECONDITION
    assert "--threads" in err


def test_demo_fails_loudly_under_impossible_tolerance(capsys, monkeypatch):
    # force one reproduction check to fail and confirm the nonzero exit
    import qcoord.cli as cli

    original = cli.classical_value

    def broken(game, **kwargs):
        result = original(game, **kwargs)
        return type(result)(value=result.value + 1e-3,
                            strategy_a=result.strategy_a, strategy_b=result.strategy_b)

    monkeypatch.setattr(cli, "classical_value", broken)
    code, out, _ = run(capsys, "demo")
    assert code == EXIT_CHECK_FAILED
    assert "FAIL" in out


def test_parser_is_built_once_and_defaults_do_not_leak(capsys, fixtures_dir, monkeypatch):
    import qcoord.cli as cli

    seen = []

    def recording(name):
        def handler(args, profile, report):
            seen.append((name, args.json, args.seed, args.threads, args.tolerance_profile,
                         profile.name))
            return True
        return handler

    for name in ("classical-value", "classify", "demo"):
        monkeypatch.setitem(cli._HANDLERS, name, recording(name))
    game = str(fixtures_dir / "chsh.game")
    dist = str(fixtures_dir / "shared-coin.dist")
    calls = [
        ["classical-value", game, "--seed", "9", "--threads", "3", "--tolerance-profile", "strict"],
        ["classify", dist],
        ["demo", "--seed", "4", "--json"],
        ["classical-value", game],
        ["classify", dist, "--tolerance-profile", "strict", "--threads", "2"],
        ["demo"],
    ]
    for argv in calls:
        assert main(argv) == EXIT_OK
    capsys.readouterr()
    assert seen == [
        ("classical-value", False, 9, 3, "strict", "strict"),
        ("classify", False, 0, 1, "default", "default"),
        ("demo", True, 4, 1, "default", "default"),
        ("classical-value", False, 0, 1, "default", "default"),
        ("classify", False, 0, 2, "strict", "strict"),
        ("demo", False, 0, 1, "default", "default"),
    ]
    assert cli.build_parser() is cli.build_parser()
