#!/usr/bin/env python3
"""Benchmark of the qcoord package: one workload per process, one caller, closed loop.

Run from the repository root:

    python3 bench/run.py --workload classify --seed 1 --seconds 24 --trace 0

The package is imported from ``src/`` next to this directory.  Set-up
generates the workload's inputs from ``--seed`` and runs one untimed warm-up
item, three times over; then rounds over the workload's fixed pool of items
run back to back for ``--seconds``, and every item's output is checked by
the workload's oracle.  A short calibration loop timed between every two
items measures the core's current speed, and item times are reported
rescaled to a fixed reference speed, so that a slow spell of the shared
host does not read as a slower program.  With ``--trace 0`` the end-to-end
metrics are reported; with ``--trace 1`` the run alternates an untraced and
a traced pass over a fixed prefix of the inputs and reports per-layer
metrics.

The second-to-last line of standard output is a JSON report (input digest,
static facts, item counts, every failure); the last line is the result
object ``{"correct", "attempted", "failed", "metrics"}``.  See README.md in
this directory for the workloads and what each metric should move.
"""

import time

_STARTED = time.perf_counter()

import argparse
import contextlib
import json
import os
import platform
import resource
import statistics
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 3
CALIBRATION_LOOP = 20000
# about the calibration loop's time on an unloaded core of the 2-core Xeon
# host the benchmark was defined on; only ratios between commits matter
CALIBRATION_REFERENCE_S = 1.5e-3
WORKLOAD_NAMES = ("quantum-search", "corroborate", "classify", "verify")

END_TO_END = {
    "setup_s": "s",
    "item_ref_s.p50": "s",
    "item_ref_s.tail": "s",
    "items_per_ref_s": "1/s",
    "peak_rss_mb": "MB",
}

# traced function -> the span statistics reported for it
FUNCTION_METRICS = {
    "cli.main": ("calls", "self_s"),
    "fileio.load_distribution": ("s",),
    "fileio.file_digest": ("s",),
    "games.classical_value": ("calls", "s"),
    "quantum.joint_distribution": ("calls", "s"),
    "quantum.no_signalling_check": ("calls", "s"),
    "strategies.optimize_angles": ("calls", "self_s"),
    "strategies.seesaw_optimize": ("calls", "s"),
    "strategies.evaluate_qubit_strategy": ("s",),
    "strategies.behavior_from_profile": ("s",),
    "nelder_mead.nelder_mead_batch": ("calls", "s"),
    "signals.classify": ("calls", "self_s"),
    "signals.check_disjoint": ("s",),
    "signals.verify_theorem2": ("self_s",),
    "simplex.solve_lp": ("calls", "s"),
}
COUNT_METRICS = {
    "fileio.bytes_read": "B",
    "games.pairs_enumerated": "count",
    "strategies.grid_points": "count",
    "strategies.seesaw_restarts": "count",
    "nelder_mead.nelder_mead_batch.rows": "count",
    "signals.hull.vertices": "count",
    "signals.verdict.Signalling": "count",
    "signals.verdict.ClassicallyGenerated": "count",
    "signals.verdict.Entangled": "count",
    "simplex.tableau_cells": "count",
}
LAYERS = ("cli", "fileio", "games", "quantum", "signals", "simplex", "strategies",
          "nelder_mead", "bench")
STAT_UNITS = {"calls": "count", "s": "s", "self_s": "s"}


def per_layer_units() -> dict:
    units = {f"{fn}.{stat}": STAT_UNITS[stat]
             for fn, stats in FUNCTION_METRICS.items() for stat in stats}
    units.update(COUNT_METRICS)
    units["strategies.grid_points_per_s"] = "1/s"
    units["signals.hull.used_share"] = "ratio"
    units.update({f"layer.{name}.self_s": "s" for name in LAYERS})
    units["trace.overhead_s"] = "s"
    return units


class Results:
    """Attempted and failed items, with every failure kept."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def run_item(self, workload, index, phase, span=None):
        """Run, time and check one item; returns its wall time, or None if it raised."""
        self.attempted += 1
        label = workload.label(index)
        try:
            with span(index, label) if span else contextlib.nullcontext():
                started = time.perf_counter()
                out = workload.run(index)
                elapsed = time.perf_counter() - started
        except Exception as exc:  # an item that raises is a failed item; keep going
            self._fail(index, label, phase, f"raised {type(exc).__name__}: {exc}")
            return None
        try:
            problem = workload.check(index, out)
        except Exception as exc:  # a malformed output is a failed item too
            problem = f"oracle raised {type(exc).__name__}: {exc}"
        if problem:
            self._fail(index, label, phase, problem)
        return elapsed

    def _fail(self, index, label, phase, message):
        self.failures.append({"item": index, "kind": label, "phase": phase, "error": message})


def tail(times: list):
    """The highest percentile with at least ten items beyond it, never below the median.

    That is the 11th-slowest item; with fewer than 21 items it is the slowest.
    """
    ordered = sorted(times)
    n = len(ordered)
    if n - 11 >= n // 2:
        value = ordered[n - 11]
        percentile = 100.0 * (n - 10) / n
    else:
        value = ordered[-1]
        percentile = 100.0
    return value, {"percentile": round(percentile, 2), "items": n,
                   "items_beyond": sum(t > value for t in ordered)}


def calibration_s() -> float:
    """Wall time of a fixed pure-Python loop of about 2 ms: the core's current speed."""
    started = time.perf_counter()
    total = 0
    for i in range(CALIBRATION_LOOP):
        total += i * i % 7
    return time.perf_counter() - started


def timed_rounds(workload, results, seconds):
    """Closed loop of rounds over the pool, a calibration between every two items.

    Returns, per item, a list of (wall time, mean of the calibrations timed
    just before and just after it), and the number of rounds.  The first
    round always runs; a further one starts only if it is expected to end
    within ``seconds``, judged by the slowest round so far.
    """
    runs = [[] for _ in workload.items]
    started = time.perf_counter()
    slowest = 0.0
    rounds = 0
    while True:
        round_started = time.perf_counter()
        before = calibration_s()
        for index, item_runs in enumerate(runs):
            elapsed = results.run_item(workload, index, "timed")
            after = calibration_s()
            if elapsed is not None:
                item_runs.append((elapsed, (before + after) / 2.0))
            before = after
        now = time.perf_counter()
        slowest = max(slowest, now - round_started)
        rounds += 1
        if now - started + slowest > seconds:
            return runs, rounds


def item_times(runs):
    """Each item's median wall time over its rounds, raw and at reference core speed.

    The shared host slows a core by up to 1.7x, for seconds to minutes at a
    time.  A wall time ``t`` with calibration ``c`` around it is rescaled to
    ``t * CALIBRATION_REFERENCE_S / c``: the time the item would take on a
    core that runs the calibration loop in the reference time.
    """
    raw = [statistics.median(t for t, _ in item_runs) for item_runs in runs]
    ref = [statistics.median(t * CALIBRATION_REFERENCE_S / c for t, c in item_runs)
           for item_runs in runs]
    return raw, ref


def traced_loop(workload, results, seconds, tracer):
    """Alternate untraced and traced passes over the workload's trace prefix."""
    summaries, walls = [], []
    deadline = time.perf_counter() + seconds
    while True:
        started = time.perf_counter()
        for index in range(workload.trace_items):
            results.run_item(workload, index, "untraced pass")
        untraced = time.perf_counter() - started

        tracer.reset()
        tracer.install()
        try:
            started = time.perf_counter()
            for index in range(workload.trace_items):
                results.run_item(workload, index, "traced pass", tracer.item_span)
            traced = time.perf_counter() - started
        finally:
            tracer.uninstall()
        summaries.append(tracer.summary())
        walls.append((untraced, traced))
        if time.perf_counter() >= deadline:
            return summaries, walls


def layer_metrics(summaries, walls) -> dict:
    """Per-pass values reduced to their median over passes."""
    def per_pass(s):
        values = {f"{fn}.{stat}": s[stat].get(fn, 0)
                  for fn, stats in FUNCTION_METRICS.items() for stat in stats}
        values.update({name: s["counts"].get(name, 0) for name in COUNT_METRICS})
        grid_s = s["self_s"].get("strategies.optimize_angles", 0.0)
        values["strategies.grid_points_per_s"] = (
            s["counts"].get("strategies.grid_points", 0) / grid_s if grid_s else 0.0)
        cg_vertices = s["counts"].get("signals.hull.cg_vertices", 0)
        values["signals.hull.used_share"] = (
            s["counts"].get("signals.hull.cg_support", 0) / cg_vertices if cg_vertices else 0.0)
        for layer in LAYERS:
            values[f"layer.{layer}.self_s"] = sum(
                by_module.get(layer, 0.0) for by_module in s["module_self_s_by_label"].values())
        return values

    passes = [per_pass(s) for s in summaries]
    values = {name: statistics.median(p[name] for p in passes) for name in passes[0]}
    values["trace.overhead_s"] = statistics.median(traced - untraced for untraced, traced in walls)
    return values


def label_breakdown(summaries) -> dict:
    """Median module self seconds and shares per item label, over traced passes."""
    labels = {label for s in summaries for label in s["module_self_s_by_label"] if label}
    out = {}
    for label in sorted(labels):
        seconds = {
            layer: statistics.median(
                s["module_self_s_by_label"].get(label, {}).get(layer, 0.0) for s in summaries)
            for layer in LAYERS
        }
        total = sum(seconds.values())
        out[label] = {"self_s": seconds,
                      "share": {k: v / total for k, v in seconds.items()} if total else {}}
    return out


def static_facts(numpy_version: str) -> dict:
    src_lines = sum(len(p.read_text(encoding="utf-8").splitlines()) for p in SRC.rglob("*.py"))
    return {
        "src_lines": src_lines,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=24.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    if not (SRC / "qcoord" / "__init__.py").is_file():
        print(f"error: no qcoord package under {SRC}", file=sys.stderr)
        return 2
    # the core's speed during set-up: once before the imports, once after each repeat
    setup_calibrations = [calibration_s()]
    # one caller on a shared machine: no BLAS worker threads unless asked for
    for var in THREAD_VARS:
        os.environ.setdefault(var, "1")
    # the same import cost on every run, and nothing written into src/
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(SRC))
    import numpy as np
    import qcoord
    from tracing import Tracer
    from workloads import WORKLOADS
    if Path(qcoord.__file__).resolve().parent != (SRC / "qcoord").resolve():
        print(f"error: imported qcoord from {qcoord.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - _STARTED

    with tempfile.TemporaryDirectory(prefix=".work-", dir=BENCH) as work:
        results, setup_s, digests = Results(), [], set()
        for repeat in range(SETUP_REPEATS):
            started = time.perf_counter()
            workdir = Path(work) / f"setup-{repeat}"
            workdir.mkdir()
            workload = WORKLOADS[args.workload](args.seed, workdir)
            results.run_item(workload, 0, "warm-up")
            setup_s.append(time.perf_counter() - started)
            setup_calibrations.append(calibration_s())
            digests.add(workload.digest)
        if len(digests) != 1:
            raise RuntimeError("input generation is not deterministic for one seed")

        report = {
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "inputs_sha256": workload.digest,
            "static": static_facts(np.__version__), "workload_facts": workload.facts(),
            "setup": {"import_s": import_s, "repeats_s": setup_s,
                      "calibrations_s": setup_calibrations},
        }
        if args.trace:
            tracer = Tracer(qcoord)
            summaries, walls = traced_loop(workload, results, args.seconds, tracer)
            values = layer_metrics(summaries, walls)
            units = per_layer_units()
            report["absent"] = sorted(fn for fn in FUNCTION_METRICS if fn not in tracer.names)
            report["passes"] = {"count": len(walls), "items_per_pass": workload.trace_items,
                                "untraced_s": [u for u, _ in walls],
                                "traced_s": [t for _, t in walls]}
            report["module_self_s_by_label"] = label_breakdown(summaries)
        else:
            runs, rounds = timed_rounds(workload, results, args.seconds)
            # an item that raised in every round is only in the failures
            runs = [item_runs for item_runs in runs if item_runs]
            if not runs:
                raise RuntimeError("no item completed")
            raw, ref = item_times(runs)
            tail_s, tail_info = tail(ref)
            values = {
                # rescaled to the reference speed like the item times
                "setup_s": (import_s + statistics.median(setup_s))
                * CALIBRATION_REFERENCE_S / statistics.median(setup_calibrations),
                "item_ref_s.p50": statistics.median(ref),
                "item_ref_s.tail": tail_s,
                "items_per_ref_s": len(ref) / sum(ref),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
            units = END_TO_END
            calibrations = [c for item_runs in runs for _, c in item_runs]
            report["items"] = {"pool": len(workload.items), "completed": len(runs),
                               "rounds": rounds, "timed_runs": len(calibrations)}
            report["tail"] = tail_info
            report["calibration_s"] = {"reference": CALIBRATION_REFERENCE_S,
                                       "median": statistics.median(calibrations),
                                       "min": min(calibrations), "max": max(calibrations)}
            raw_tail, _ = tail(raw)
            report["wall_s"] = {"item_s.p50": statistics.median(raw), "item_s.tail": raw_tail,
                                "items_per_s": len(raw) / sum(raw)}

    failed = len(results.failures)
    report["attempted"] = results.attempted
    report["fail_ratio"] = failed / results.attempted
    report["failures"] = results.failures
    print(json.dumps(report, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": results.attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
