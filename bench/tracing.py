"""Span tracing of the qcoord package from outside the program.

``Tracer.install`` wraps every public function of every ``qcoord`` submodule
and rebinds it under each name a caller looks it up by: the defining module,
every module that imported it (``qcoord.strategies.nelder_mead_batch``,
``qcoord.signals.solve_lp``, ``qcoord.cli.classify``, ...) and the package
namespace.  A span is named after the defining module, so the call that
``strategies`` makes through its own name ``nelder_mead_batch`` is the span
``nelder_mead.nelder_mead_batch``.  ``uninstall`` restores every binding, so
wrappers exist only while a traced pass runs.  Functions are found at run
time, so a deleted module or function simply never shows up.

Spans are kept in memory as [name, start, end, parent, item] and reduced
when the pass ends.  Self time is a span's duration minus the durations of
its direct children.  ``COUNTERS`` adds work counts computed from the
arguments and results of a few calls.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import os
import pkgutil
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np


def _optimize_angles(args, result):
    game = args["game"]
    yield "strategies.grid_points", args["cfg"].grid_points ** (len(game.states_a) + len(game.states_b))


def _seesaw_optimize(args, result):
    yield "strategies.seesaw_restarts", args["cfg"].restarts


def _nelder_mead_batch(args, result):
    yield "nelder_mead.nelder_mead_batch.rows", len(args["starts"])


def _classify(args, result):
    yield f"signals.verdict.{result.verdict.value}", 1
    if result.locality is not None:
        n_s, n_t, n_phi, n_psi = args["p"].shape
        vertices = (n_s ** n_phi) * (n_t ** n_psi)
        yield "signals.hull.vertices", vertices
        if result.locality.feasible:
            yield "signals.hull.cg_vertices", vertices
            yield "signals.hull.cg_support", len(result.locality.weights or ())


def _solve_lp(args, result):
    rows, columns = np.shape(args["A"])
    # computed, not measured: constraints plus one artificial per row plus b
    yield "simplex.tableau_cells", rows * (columns + rows + 1)


def _bytes_read(args, result):
    yield "fileio.bytes_read", os.path.getsize(args["path"])


def _classical_value(args, result):
    n_a, n_b, n_phi, n_psi = args["game"].payoff.shape
    yield "games.pairs_enumerated", (n_a ** n_phi) * (n_b ** n_psi)


# span name -> generator of (counter, amount) from (bound arguments, result)
COUNTERS = {
    "strategies.optimize_angles": _optimize_angles,
    "strategies.seesaw_optimize": _seesaw_optimize,
    "nelder_mead.nelder_mead_batch": _nelder_mead_batch,
    "signals.classify": _classify,
    "simplex.solve_lp": _solve_lp,
    "fileio.load_distribution": _bytes_read,
    "fileio.file_digest": _bytes_read,
    "games.classical_value": _classical_value,
}


def _public_functions(module):
    for attr, obj in vars(module).items():
        if (not attr.startswith("_") and callable(obj) and not isinstance(obj, type)
                and getattr(obj, "__module__", None) == module.__name__):
            yield attr, obj


class Tracer:
    def __init__(self, package):
        self.modules = [package] + [
            importlib.import_module(f"{package.__name__}.{info.name}")
            for info in pkgutil.iter_modules(package.__path__)
        ]
        self.wrappers = {}   # id(original) -> (original, wrapper)
        self.names = set()
        for module in self.modules[1:]:
            short = module.__name__.rsplit(".", 1)[1]
            for attr, fn in _public_functions(module):
                name = f"{short}.{attr}"
                self.names.add(name)
                self.wrappers[id(fn)] = (fn, self._wrap(name, fn))
        self._patches = []
        self.reset()

    def reset(self):
        self.spans = []
        self.counts = Counter()
        self.stack = []
        self.item = None

    def _wrap(self, name, fn):
        tracer = self
        counter = COUNTERS.get(name)
        signature = inspect.signature(fn) if counter else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, tracer.stack[-1] if tracer.stack else -1, tracer.item]
            tracer.stack.append(len(tracer.spans))
            tracer.spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                tracer.stack.pop()
            if counter:
                for key, amount in counter(signature.bind(*args, **kwargs).arguments, result):
                    tracer.counts[key] += amount
            return result

        return wrapper

    def install(self):
        for module in self.modules:
            for attr, obj in list(vars(module).items()):
                hit = self.wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patches.append((module, attr, obj))
                    setattr(module, attr, hit[1])

    def uninstall(self):
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    @contextlib.contextmanager
    def item_span(self, item, label):
        """Root span of one item; its self time is the benchmark's own work."""
        self.item = (item, label)
        span = ["bench.item", perf_counter(), 0.0, -1, self.item]
        self.stack.append(len(self.spans))
        self.spans.append(span)
        try:
            yield
        finally:
            span[2] = perf_counter()
            self.stack.pop()
            self.item = None

    def summary(self) -> dict:
        """Calls, inclusive and self seconds per span, and module self seconds per item label."""
        duration = [end - start for _, start, end, _, _ in self.spans]
        children = [0.0] * len(self.spans)
        for i, span in enumerate(self.spans):
            if span[3] >= 0:
                children[span[3]] += duration[i]
        calls, total, own = Counter(), defaultdict(float), defaultdict(float)
        by_label = defaultdict(lambda: defaultdict(float))
        for i, (name, _, _, _, item) in enumerate(self.spans):
            calls[name] += 1
            total[name] += duration[i]
            own[name] += duration[i] - children[i]
            by_label[item[1] if item else None][name.split(".", 1)[0]] += duration[i] - children[i]
        return {"calls": calls, "s": total, "self_s": own, "counts": Counter(self.counts),
                "module_self_s_by_label": {k: dict(v) for k, v in by_label.items()}}
