"""Command-line front end.

Subcommands: classical-value, quantum-optimize, no-signalling, classify,
theorem2 and demo.  Every command accepts ``--json`` for machine-readable
output, ``--seed`` for deterministic randomized stages and
``--tolerance-profile`` to pick pass/fail thresholds; optimizer restarts
run in the calling thread.  With a fixed seed, repeated runs produce
byte-identical ``--json`` output; wall time therefore appears only in the
human-readable rendering.

Exit codes: 0 all validations and checks passed, 1 a numeric check failed
its tolerance, 2 unparseable input, 3 a well-formed but invalid document,
4 a domain precondition was violated (wrong shapes, non-binary actions,
signalling input where a disjoint one is required, ...), 5 a solver could
not finish (iteration limit, singular basis, or an answer that fails its
final check).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
import time
from dataclasses import dataclass, field, fields

import numpy as np

from . import __version__
from . import tolerances as tol
from .errors import ParseError, QcoordError, SolverLimitReached, ValidationError
from .fileio import file_digest, load_distribution, load_game, load_state, parse_angle, parse_angle_list
from .games import chsh_game, classical_value, phi_only_game
from .quantum import (
    DensityMatrix,
    angle_family,
    joint_distribution,
    maximally_mixed,
    no_signalling_check,
    projective_pair,
    singlet_state,
)
from .signals import Verdict, classify, distribution_from_quantum, verify_theorem2
from .strategies import (
    OptimizerConfig,
    chsh_reference_strategy,
    evaluate_qubit_strategy,
    optimize_angles,
    seesaw_optimize,
)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_PARSE = 2
EXIT_VALIDATION = 3
EXIT_PRECONDITION = 4
EXIT_SOLVER = 5


def _fmt(value: float) -> str:
    return f"{value:.10g}"


@dataclass
class RunReport:
    """Everything a command produced, in one machine-renderable bundle."""

    command: str
    seed: int
    tolerance_profile: str
    inputs: dict = field(default_factory=dict)
    results: dict = field(default_factory=dict)
    checks: dict = field(default_factory=dict)   # name -> {passed, value, tolerance}
    verdicts: dict = field(default_factory=dict)
    extra: dict = field(default_factory=dict)
    wall_time_s: float = 0.0

    def add_input(self, name: str, path):
        self.inputs[name] = {"path": str(path), "sha256": file_digest(path)}

    def add_check(self, name: str, value: float, tolerance: float, passed: bool):
        self.checks[name] = {
            "passed": bool(passed),
            "value": float(value),
            "tolerance": float(tolerance),
        }

    @property
    def all_passed(self) -> bool:
        return all(c["passed"] for c in self.checks.values())

    def to_json(self) -> str:
        payload = {
            "command": self.command,
            "version": __version__,
            "seed": self.seed,
            "tolerance_profile": self.tolerance_profile,
            "inputs": self.inputs,
            "results": self.results,
            "checks": self.checks,
            "verdicts": self.verdicts,
            "extra": self.extra,
        }
        return json.dumps(payload, sort_keys=True, indent=2)

    def to_text(self) -> str:
        lines = [f"qcoord {self.command} (v{__version__}, profile {self.tolerance_profile}, seed {self.seed})"]
        for name, info in self.inputs.items():
            lines.append(f"  input {name}: {info['path']} (sha256 {info['sha256'][:16]}...)")
        for name, value in self.results.items():
            lines.append(f"  {name} = {_fmt(value)}")
        for name, verdict in self.verdicts.items():
            lines.append(f"  {name}: {verdict}")
        for name, c in self.checks.items():
            status = "PASS" if c["passed"] else "FAIL"
            lines.append(
                f"  check {name}: {status} (value {_fmt(c['value'])}, tolerance {_fmt(c['tolerance'])})"
            )
        for name, payload in self.extra.items():
            lines.append(f"  {name}: {_render_extra(payload)}")
        lines.append(f"  wall time: {self.wall_time_s:.3f} s")
        return "\n".join(lines)


def _render_extra(payload) -> str:
    if isinstance(payload, dict):
        return ", ".join(f"{k} -> {_render_extra(v)}" for k, v in payload.items())
    if isinstance(payload, float):
        return _fmt(payload)
    if isinstance(payload, (list, tuple)):
        return "[" + ", ".join(_render_extra(v) for v in payload) + "]"
    return str(payload)


def _resolve_state(token: str) -> DensityMatrix:
    if token == "singlet":
        return singlet_state()
    if token == "maximally-mixed":
        return maximally_mixed(4)
    return load_state(token)


def _optimizer_config(args) -> OptimizerConfig:
    # each field has the option of its name, --seed among the common ones
    return OptimizerConfig(**{f.name: getattr(args, f.name) for f in fields(OptimizerConfig)})


def cmd_classical_value(args, profile, report: RunReport) -> bool:
    game = load_game(args.game)
    report.add_input("game", args.game)
    solution = classical_value(game)
    report.results["classical_value"] = solution.value
    report.extra["strategy_a"] = dict(solution.strategy_a)
    report.extra["strategy_b"] = dict(solution.strategy_b)
    return True


def cmd_quantum_optimize(args, profile, report: RunReport) -> bool:
    game = load_game(args.game)
    report.add_input("game", args.game)
    shared = _resolve_state(args.state)
    cfg = _optimizer_config(args)
    strategy, angle_value = optimize_angles(game, shared, cfg)
    _, seesaw_value = seesaw_optimize(game, shared, cfg)
    report.results["angle_value"] = angle_value
    report.results["seesaw_value"] = seesaw_value
    report.results["best_value"] = max(angle_value, seesaw_value)
    report.extra["state"] = args.state
    report.extra["best_angles_a"] = {k: float(v) for k, v in strategy.angles_a.items()}
    report.extra["best_angles_b"] = {k: float(v) for k, v in strategy.angles_b.items()}
    return True


def cmd_no_signalling(args, profile, report: RunReport) -> bool:
    shared = _resolve_state(args.state)
    first = [projective_pair(t) for t in parse_angle_list(args.alice)]
    second = projective_pair(parse_angle(args.bob))
    ns = no_signalling_check(shared, first, second, tolerance=profile.nosig)
    report.results["max_marginal_deviation"] = ns.max_deviation
    report.extra["state"] = args.state
    report.extra["bob_marginal"] = [float(x) for x in ns.marginal]
    report.add_check("no_signalling", ns.max_deviation, ns.tolerance, ns.passed)
    return ns.passed


def _classification_into_report(result, report: RunReport):
    report.results["disjointness_violation"] = result.disjoint.max_violation
    report.results["state_consistency_violation"] = result.state_consistent.max_violation
    report.verdicts["disjoint"] = "yes" if result.disjoint.passed else "no"
    report.verdicts["state_consistent"] = "yes" if result.state_consistent.passed else "no"
    if result.locality is not None:
        report.results["lp_residual"] = result.locality.residual
        report.extra["lp_pivots"] = {"phase1": 0, "phase2": result.locality.pivots}
        if result.locality.certificate_gap is not None:
            report.extra["certificate_gap"] = result.locality.certificate_gap
        if result.locality.feasible and result.locality.weights:
            top = sorted(result.locality.weights, key=lambda w: -w[2])[:10]
            report.extra["mixture_weights"] = [
                {"response_a": list(a), "response_b": list(b), "weight": float(w)}
                for a, b, w in top
            ]
    report.verdicts["classification"] = result.verdict.value


def cmd_classify(args, profile, report: RunReport) -> bool:
    dist = load_distribution(args.distribution)
    report.add_input("distribution", args.distribution)
    # priors are not part of the file; state consistency is checked against
    # the product of the distribution's own state marginals
    prior_a = dist.table.sum(axis=(0, 1, 3))
    prior_b = dist.table.sum(axis=(0, 1, 2))
    result = classify(dist, prior_a, prior_b, profile=profile)
    _classification_into_report(result, report)
    return True


def cmd_theorem2(args, profile, report: RunReport) -> bool:
    game = load_game(args.game)
    dist = load_distribution(args.distribution)
    report.add_input("game", args.game)
    report.add_input("distribution", args.distribution)
    t2 = verify_theorem2(game, dist, profile=profile)
    report.results["payoff_original"] = t2.payoff_original
    report.results["payoff_transformed"] = t2.payoff_transformed
    report.results["payoff_difference"] = t2.difference
    report.add_check("payoff_equal", t2.difference, t2.tolerance, t2.difference <= t2.tolerance)
    _classification_into_report(t2.transformed_classification, report)
    verdict_ok = t2.transformed_classification.verdict is Verdict.CLASSICALLY_GENERATED
    report.add_check("transform_classically_generated", 1.0 if verdict_ok else 0.0, 1.0, verdict_ok)
    return t2.passed


def cmd_demo(args, profile, report: RunReport) -> bool:
    quantum_target = math.cos(math.pi / 8) ** 2
    game = chsh_game()
    shared = singlet_state()

    solution = classical_value(game)
    report.results["classical_value"] = solution.value
    report.add_check("classical_value_is_3_4", abs(solution.value - 0.75), 1e-15,
                     abs(solution.value - 0.75) <= 1e-15)

    reference = chsh_reference_strategy()
    reference_value = evaluate_qubit_strategy(game, reference, shared)
    report.results["quantum_reference_value"] = reference_value
    report.add_check("quantum_reference_matches_cos2_pi_8",
                     abs(reference_value - quantum_target), 1e-10,
                     abs(reference_value - quantum_target) <= 1e-10)

    cfg = OptimizerConfig(seed=args.seed)
    _, angle_value = optimize_angles(game, shared, cfg)
    _, seesaw_value = seesaw_optimize(game, shared, cfg)
    report.results["optimized_angle_value"] = angle_value
    report.results["seesaw_value"] = seesaw_value
    report.add_check("optimizer_reaches_quantum_value",
                     quantum_target - angle_value, 1e-6,
                     angle_value >= quantum_target - 1e-6)
    report.add_check("seesaw_reaches_quantum_value",
                     quantum_target - seesaw_value, 1e-6,
                     seesaw_value >= quantum_target - 1e-6)

    fam_a = angle_family({s: reference.angles_a[s] for s in game.states_a})
    fam_b = angle_family({s: reference.angles_b[s] for s in game.states_b})
    tables = {}
    worst_table_dev = 0.0
    for f in game.states_a:
        for w in game.states_b:
            table = joint_distribution(shared, fam_a[f], fam_b[w])
            delta = reference.angles_b[w] - reference.angles_a[f]
            closed = 0.5 * np.array([
                [math.sin(delta) ** 2, math.cos(delta) ** 2],
                [math.cos(delta) ** 2, math.sin(delta) ** 2],
            ])
            worst_table_dev = max(worst_table_dev, float(np.abs(table - closed).max()))
            tables[f"phi={f}, psi={w}"] = [[float(x) for x in row] for row in table]
    report.extra["outcome_tables"] = tables
    report.add_check("outcome_tables_match_closed_form", worst_table_dev, 1e-10,
                     worst_table_dev <= 1e-10)

    dist = distribution_from_quantum(shared, fam_a, fam_b, game.prior_a, game.prior_b)
    classification = classify(dist, game.prior_a, game.prior_b, profile=profile)
    _classification_into_report(classification, report)
    entangled = classification.verdict is Verdict.ENTANGLED
    report.add_check("quantum_signals_entangled", 1.0 if entangled else 0.0, 1.0, entangled)

    t2 = verify_theorem2(phi_only_game(), dist, profile=profile)
    report.results["theorem2_payoff_original"] = t2.payoff_original
    report.results["theorem2_payoff_transformed"] = t2.payoff_transformed
    report.add_check("theorem2_payoffs_equal", t2.difference, t2.tolerance,
                     t2.difference <= t2.tolerance)
    t2_cg = t2.transformed_classification.verdict is Verdict.CLASSICALLY_GENERATED
    report.add_check("theorem2_transform_classically_generated",
                     1.0 if t2_cg else 0.0, 1.0, t2_cg)

    report.extra["classical_value_10dp"] = f"{solution.value:.10f}"
    report.extra["quantum_value_10dp"] = f"{reference_value:.10f}"
    return report.all_passed


_HANDLERS = {
    "classical-value": cmd_classical_value,
    "quantum-optimize": cmd_quantum_optimize,
    "no-signalling": cmd_no_signalling,
    "classify": cmd_classify,
    "theorem2": cmd_theorem2,
    "demo": cmd_demo,
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process; ``parse_args`` never mutates it."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="emit a machine-readable report")
    common.add_argument("--seed", type=int, default=0, help="seed for randomized stages")
    common.add_argument("--tolerance-profile", choices=sorted(tol.PROFILES),
                        default="default", help="pass/fail threshold profile")

    parser = argparse.ArgumentParser(
        prog="qcoord",
        description="Classical and quantum analysis of two-player coordination games",
    )
    parser.add_argument("--version", action="version", version=f"qcoord {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classical-value", parents=[common],
                       help="exact classical value of a game file by enumeration")
    p.add_argument("game", help="path to a game document")

    p = sub.add_parser("quantum-optimize", parents=[common],
                       help="lower-bound the quantum value of a binary-action game")
    p.add_argument("game", help="path to a game document")
    p.add_argument("--state", default="singlet",
                   help="singlet, maximally-mixed, or a path to a state document")
    defaults = OptimizerConfig()
    p.add_argument("--grid-points", type=int, default=defaults.grid_points)
    p.add_argument("--refine-iterations", type=int, default=defaults.refine_iterations,
                   help="results are those of N best-response sweeps per restart "
                        f"(default {defaults.refine_iterations}); a restart stops once it repeats exactly")
    p.add_argument("--restarts", type=int, default=defaults.restarts)

    p = sub.add_parser("no-signalling", parents=[common],
                       help="numeric marginal-independence check for measurement choices")
    p.add_argument("--state", default="singlet")
    p.add_argument("--alice", required=True, help="comma-separated measurement angles")
    p.add_argument("--bob", required=True, help="single measurement angle")

    p = sub.add_parser("classify", parents=[common],
                       help="classify a joint signal distribution file")
    p.add_argument("distribution", help="path to a distribution document")

    p = sub.add_parser("theorem2", parents=[common],
                       help="payoff comparison against the product-form transform")
    p.add_argument("game", help="path to a game document (payoff must ignore psi)")
    p.add_argument("distribution", help="path to a distribution document")

    sub.add_parser("demo", parents=[common],
                   help="self-contained reproduction of the reference numbers")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    profile = tol.PROFILES[args.tolerance_profile]
    report = RunReport(command=args.command, seed=args.seed,
                       tolerance_profile=args.tolerance_profile)
    started = time.perf_counter()
    try:
        ok = _HANDLERS[args.command](args, profile, report)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except SolverLimitReached as exc:
        print(f"error: {exc.__class__.__name__}: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except QcoordError as exc:
        print(f"error: {exc.__class__.__name__}: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    report.wall_time_s = time.perf_counter() - started

    if args.json:
        print(report.to_json())
    else:
        print(report.to_text())
    return EXIT_OK if ok else EXIT_CHECK_FAILED


if __name__ == "__main__":
    sys.exit(main())
