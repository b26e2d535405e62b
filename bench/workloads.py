"""The four benchmark workloads: seeded inputs, the timed call, and its oracle.

Every input is generated here from the run's seed with numpy alone, never
with ``qcoord.sampling`` or the bundled fixtures, so a change to the library
cannot change what is measured.  Each workload feeds a sha256 of its inputs
into ``digest`` so that runs on two commits can be shown to use identical
inputs.

Each item is split into ``run(index)``, the timed calls into the public API
or CLI, and ``check(index, output)``, an untimed oracle that recomputes the
expected answer without calling the code under test and returns a failure
message or None.  Library names are looked up through their modules at call
time (``strategies.optimize_angles``, not a name bound at import), so the
wrappers of a traced run see every call.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import math
from pathlib import Path

import numpy as np

from qcoord import cli, games, quantum, signals, strategies

BINARY = ("0", "1")
EYE2 = np.eye(2, dtype=complex)
SINGLET = np.outer([0.0, 1.0, -1.0, 0.0], [0.0, 1.0, -1.0, 0.0]).astype(complex) / 2.0

# CHSH as the paper states it: opposite actions win, except in the cell
# (state_a = 1, state_b = 0) where equal actions win.  Parity c[f, w] is the
# winning value of a xor b.
CHSH_PARITY = np.array([[1, 1], [0, 1]])
CHSH_ANGLES_A = (0.0, math.pi / 4)
CHSH_ANGLES_B = (-math.pi / 8, math.pi / 8)

QUANTUM_TOL = 1e-6      # optimizer value against Tsirelson's value
RECOMPUTE_TOL = 1e-12   # optimizer value against its own np.kron recomputation
VERIFY_TOL = 1e-10      # no-signalling deviation and Theorem-2 difference


def _feed(h, *parts):
    """Hash strings, bytes and arrays, each array with its dtype and shape."""
    for part in parts:
        if isinstance(part, str):
            h.update(part.encode())
        elif isinstance(part, (bytes, bytearray)):
            h.update(part)
        else:
            arr = np.ascontiguousarray(part)
            h.update(repr((arr.dtype.str, arr.shape)).encode())
            h.update(arr.tobytes())


def _labels(n: int) -> tuple:
    return tuple(str(i) for i in range(n))


def _prior(rng, n: int) -> np.ndarray:
    # concentration 4 keeps every state's mass well above the mass floor
    return rng.dirichlet(np.full(n, 4.0))


def _mixed_state(rng, dim: int = 4) -> np.ndarray:
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def _pure_state(rng, dim: int = 4) -> np.ndarray:
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return np.outer(v, v.conj()) / np.vdot(v, v).real


def _random_state(rng) -> np.ndarray:
    return _pure_state(rng) if rng.random() < 0.5 else _mixed_state(rng)


def _projectors(theta: float) -> list:
    """Outcome operators of the real projective pair at angle theta."""
    v = np.array([math.cos(theta), math.sin(theta)], dtype=complex)
    p0 = np.outer(v, v)
    return [p0, EYE2 - p0]


def _random_povm(rng, n_outcomes: int) -> list:
    """Qubit POVM S^-1/2 A_i S^-1/2 from random positive A_i, S = sum A_i."""
    parts = []
    for _ in range(n_outcomes):
        g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        parts.append(g @ g.conj().T)
    w, u = np.linalg.eigh(sum(parts))
    inv_sqrt = u @ np.diag(w ** -0.5) @ u.conj().T
    return [inv_sqrt @ a @ inv_sqrt for a in parts]


def _outcome_table(rho: np.ndarray, ops_a: list, ops_b: list) -> np.ndarray:
    """q[s, t, f, w] = tr(rho (A_{s|f} kron B_{t|w})), by explicit Kronecker products."""
    q = np.zeros((len(ops_a[0]), len(ops_b[0]), len(ops_a), len(ops_b)))
    for f, fam_a in enumerate(ops_a):
        for w, fam_b in enumerate(ops_b):
            for s, m in enumerate(fam_a):
                for t, n in enumerate(fam_b):
                    q[s, t, f, w] = np.trace(rho @ np.kron(m, n)).real
    return q


def _strategy_value(payoff, prior_a, prior_b, rho, ops_a, ops_b, map_a, map_b) -> float:
    q = _outcome_table(rho, ops_a, ops_b)
    total = 0.0
    for s, t, f, w in np.ndindex(q.shape):
        total += prior_a[f] * prior_b[w] * payoff[map_a[s], map_b[t], f, w] * q[s, t, f, w]
    return float(total)


def _xor_payoff(parity: np.ndarray) -> np.ndarray:
    payoff = np.zeros((2, 2) + parity.shape)
    for a, b in np.ndindex(2, 2):
        payoff[a, b] = (parity == (a ^ b)).astype(float)
    return payoff


def tsirelson_value(prior_a, prior_b, parity) -> float:
    """Quantum value of a 2 x n XOR game on the singlet (Tsirelson's vector program).

    With G[f, w] = prior_a[f] prior_b[w] (-1)^parity[f, w] the winning
    probability is 1/2 + 1/2 sum G[f, w] <u_f, v_w> over unit vectors.  With
    <u_0, u_1> = x each v_w aligns with G[0, w] u_0 + G[1, w] u_1, so the value
    is 1/2 + 1/2 max_x sum_w sqrt(G0w^2 + G1w^2 + 2 G0w G1w x); the sum is
    concave in x, so a ternary search finds the maximum.  Real qubit angles
    on the singlet realize every planar configuration, so the bound is tight.
    """
    g = np.outer(prior_a, prior_b) * np.where(np.asarray(parity) == 1, -1.0, 1.0)

    def total(x):
        return float(np.sum(np.sqrt(np.maximum(g[0] ** 2 + g[1] ** 2 + 2 * g[0] * g[1] * x, 0.0))))

    lo, hi = -1.0, 1.0
    for _ in range(200):
        m1, m2 = lo + (hi - lo) / 3, hi - (hi - lo) / 3
        if total(m1) < total(m2):
            lo = m1
        else:
            hi = m2
    return 0.5 + 0.5 * total((lo + hi) / 2)


def _game(item) -> games.Game:
    n_a, n_b = item["payoff"].shape[2:]
    return games.Game(
        states_a=_labels(n_a), states_b=_labels(n_b),
        prior_a=item["prior_a"], prior_b=item["prior_b"],
        actions_a=BINARY, actions_b=BINARY,
        payoff=item["payoff"],
    )


def _check_optimizers(item, out) -> list:
    """Recompute both returned strategies with np.kron and compare values."""
    strategy, angle_value, profile, seesaw_value = out
    errors = []
    n_a, n_b = item["payoff"].shape[2:]
    ops_a = [_projectors(strategy.angles_a[f]) for f in _labels(n_a)]
    ops_b = [_projectors(strategy.angles_b[w]) for w in _labels(n_b)]
    recomputed = _strategy_value(item["payoff"], item["prior_a"], item["prior_b"], item["rho"],
                                 ops_a, ops_b, (0, 1), (0, 1))
    if abs(recomputed - angle_value) > RECOMPUTE_TOL:
        errors.append(f"angle value {angle_value!r} but its angles give {recomputed!r}")
    ops_a = [list(profile.family_a[f].operators) for f in _labels(n_a)]
    ops_b = [list(profile.family_b[w].operators) for w in _labels(n_b)]
    recomputed = _strategy_value(item["payoff"], item["prior_a"], item["prior_b"], item["rho"],
                                 ops_a, ops_b, profile.outcome_to_action_a,
                                 profile.outcome_to_action_b)
    if abs(recomputed - seesaw_value) > RECOMPUTE_TOL:
        errors.append(f"see-saw value {seesaw_value!r} but its POVMs give {recomputed!r}")
    return errors


def _xor_item(rng, chsh: bool) -> dict:
    if chsh:
        parity, prior_a, prior_b = CHSH_PARITY, np.full(2, 0.5), np.full(2, 0.5)
    else:
        parity, prior_a, prior_b = rng.integers(0, 2, (2, 2)), _prior(rng, 2), _prior(rng, 2)
    return {
        "kind": "chsh" if chsh else "xor",
        "payoff": _xor_payoff(parity), "prior_a": prior_a, "prior_b": prior_b,
        "rho": SINGLET, "reference": tsirelson_value(prior_a, prior_b, parity),
        "seed": int(rng.integers(2 ** 31)),
    }


class Workload:
    """A fixed, seeded pool of items; a timed round runs the whole pool in order.

    The pool's mix of item kinds is fixed, so every run measures the same
    mix; ``trace_items`` is the fixed prefix of the pool a traced pass runs.
    """

    name = ""
    trace_items = 1

    def __init__(self, seed: int, workdir: Path):
        self.items = []
        self.hash = hashlib.sha256()
        _feed(self.hash, self.name)
        self.generate(np.random.default_rng(seed), workdir)

    @property
    def digest(self) -> str:
        return self.hash.hexdigest()

    def item(self, index: int) -> dict:
        return self.items[index % len(self.items)]

    def label(self, index: int) -> str:
        return self.item(index)["kind"]

    def facts(self) -> dict:
        return {"pool_items": len(self.items)}


class QuantumSearch(Workload):
    """One default ``optimize_angles`` plus one default ``seesaw_optimize`` per item."""

    name = "quantum-search"
    trace_items = 3
    POOL = 3

    def generate(self, rng, workdir):
        for i in range(self.POOL):
            if i % 3 < 2:
                item = _xor_item(rng, chsh=i % 3 == 0)
            else:
                item = {
                    "kind": "random-state",
                    "payoff": rng.random((2, 2, 2, 2)),
                    "prior_a": _prior(rng, 2), "prior_b": _prior(rng, 2),
                    "rho": _mixed_state(rng), "reference": None,
                    "seed": int(rng.integers(2 ** 31)),
                }
            _feed(self.hash, item["kind"], item["payoff"], item["prior_a"], item["prior_b"],
                  item["rho"], str(item["seed"]))
            self.items.append(item)

    def run(self, index):
        item = self.item(index)
        game = _game(item)
        shared = quantum.DensityMatrix(item["rho"])
        cfg = strategies.OptimizerConfig(seed=item["seed"])
        strategy, angle_value = strategies.optimize_angles(game, shared, cfg, threads=1)
        profile, seesaw_value = strategies.seesaw_optimize(game, shared, cfg, threads=1)
        return strategy, angle_value, profile, seesaw_value

    def check(self, index, out):
        item = self.item(index)
        errors = _check_optimizers(item, out)
        reference = item["reference"]
        if reference is not None:
            for name, value in (("angle", out[1]), ("see-saw", out[3])):
                if abs(value - reference) > QUANTUM_TOL:
                    errors.append(f"{name} value {value!r} is not within {QUANTUM_TOL} "
                                  f"of Tsirelson's {reference!r}")
        return "; ".join(errors) or None

    def facts(self):
        return {**super().facts(),
                "optimizer_config": dataclasses.asdict(strategies.OptimizerConfig())}


class Corroborate(Workload):
    """Criterion-3 shape: thousands of restarts for each optimizer per item."""

    name = "corroborate"
    trace_items = 2
    POOL = 30
    RESTARTS = 2000

    def generate(self, rng, workdir):
        for i in range(self.POOL):
            item = _xor_item(rng, chsh=i % 2 == 0)
            item["seed_seesaw"] = int(rng.integers(2 ** 31))
            _feed(self.hash, item["kind"], item["payoff"], item["prior_a"], item["prior_b"],
                  str(item["seed"]), str(item["seed_seesaw"]))
            self.items.append(item)

    def configs(self, item):
        angles = strategies.OptimizerConfig(grid_points=4, refine_iterations=40,
                                            restarts=self.RESTARTS, seed=item["seed"])
        seesaw = strategies.OptimizerConfig(refine_iterations=30, restarts=self.RESTARTS,
                                            seed=item["seed_seesaw"])
        return angles, seesaw

    def run(self, index):
        item = self.item(index)
        game = _game(item)
        shared = quantum.DensityMatrix(item["rho"])
        cfg_angles, cfg_seesaw = self.configs(item)
        strategy, angle_value = strategies.optimize_angles(game, shared, cfg_angles, threads=1)
        profile, seesaw_value = strategies.seesaw_optimize(game, shared, cfg_seesaw, threads=1)
        return strategy, angle_value, profile, seesaw_value

    def check(self, index, out):
        item = self.item(index)
        errors = _check_optimizers(item, out)
        reference = item["reference"]
        best = max(out[1], out[3])
        if best > reference + QUANTUM_TOL:
            errors.append(f"value {best!r} exceeds Tsirelson's {reference!r}")
        if best < reference - QUANTUM_TOL:
            errors.append(f"best value {best!r} does not reach Tsirelson's {reference!r}")
        return "; ".join(errors) or None

    def facts(self):
        cfg_angles, cfg_seesaw = self.configs(self.items[0])
        return {**super().facts(), "restarts": self.RESTARTS,
                "angles_config": {k: v for k, v in dataclasses.asdict(cfg_angles).items() if k != "seed"},
                "seesaw_config": {k: v for k, v in dataclasses.asdict(cfg_seesaw).items() if k != "seed"}}


def _stochastic(rng, n_states: int, n_outcomes: int) -> np.ndarray:
    m = rng.random((n_states, n_outcomes))
    return m / m.sum(axis=1, keepdims=True)


def _hidden_variable_table(rng, n_out: int, n_states: int) -> np.ndarray:
    """Mixture over eight hidden values of independent local stochastic responses."""
    q = np.zeros((n_out, n_out, n_states, n_states))
    for lam in rng.dirichlet(np.ones(8)):
        q += lam * np.einsum("fs,wt->stfw", _stochastic(rng, n_states, n_out),
                             _stochastic(rng, n_states, n_out))
    return q


def _entangled_table(rng, n_out: int, n_states: int) -> np.ndarray:
    """Singlet at the CHSH angles on states 0 and 1, random measurements elsewhere.

    With more than two outcomes, states 0 and 1 pad the projective pair with
    zero operators, so the CHSH sub-block is unchanged.
    """
    def family(chsh_angles):
        ops = []
        for f in range(n_states):
            if f < 2:
                ops.append(_projectors(chsh_angles[f]) + [np.zeros((2, 2))] * (n_out - 2))
            elif n_out == 2:
                ops.append(_projectors(rng.uniform(0.0, math.pi)))
            else:
                ops.append(_random_povm(rng, n_out))
        return ops
    return _outcome_table(SINGLET, family(CHSH_ANGLES_A), family(CHSH_ANGLES_B))


def _copy_psi_table(rng, n_out: int, n_states: int) -> np.ndarray:
    """Player A's signal copies psi (mod the alphabet); B's is a local response."""
    q = np.zeros((n_out, n_out, n_states, n_states))
    response_b = _stochastic(rng, n_states, n_out)
    for f, w in np.ndindex(n_states, n_states):
        q[w % n_out, :, f, w] = response_b[w]
    return q


def chsh_functional(q: np.ndarray) -> float:
    """CHSH winning probability on the states-{0,1}, outcomes-{0,1} sub-block.

    Every local deterministic response scores at most 3/4 here (an outcome
    outside {0, 1} never wins), so a value above 3/4 certifies that the
    conditionals lie outside the local hull.
    """
    total = 0.0
    for f, w in np.ndindex(2, 2):
        for s, t in np.ndindex(2, 2):
            if (s ^ t) == CHSH_PARITY[f, w]:
                total += 0.25 * q[s, t, f, w]
    return total


def signalling_deviation(p: np.ndarray) -> float:
    """Largest |Pr(psi | phi, s) - Pr(psi | phi)| over events of positive mass."""
    worst = 0.0
    for f in range(p.shape[2]):
        base = p[:, :, f, :].sum(axis=(0, 1))
        for s in range(p.shape[0]):
            joint = p[s, :, f, :].sum(axis=0)
            if joint.sum() > 1e-12:
                worst = max(worst, float(np.max(np.abs(joint / joint.sum() - base / base.sum()))))
    return worst


class Classify(Workload):
    """``qcoord classify <doc> --json`` in-process over documents written at set-up.

    The cycle is fixed: (signals, states per player, built verdict).  Seeds
    change the contents, never this mix, so order statistics over the pool
    of ten cycles stay comparable between runs.  Three Signalling items, six
    16-vertex items and six LP-heavier ones put the median inside the
    16-vertex class and the tail among the 729- and 1024-vertex items.

    The 1024-vertex items are Entangled: the dense Bland's-rule LP on
    1024-vertex ClassicallyGenerated tables takes 0.2 to 3.4 s depending on
    the contents, which would make a 24 s run measure the seed rather than
    the code.  ClassicallyGenerated is measured at 729 vertices.
    """

    name = "classify"
    CYCLE = (
        (2, 2, "ClassicallyGenerated"), (2, 2, "Entangled"), (2, 2, "Signalling"),
        (2, 2, "ClassicallyGenerated"), (2, 2, "Entangled"), (3, 2, "Signalling"),
        (2, 2, "ClassicallyGenerated"), (2, 2, "Entangled"), (2, 5, "Signalling"),
        (2, 3, "ClassicallyGenerated"), (3, 2, "Entangled"), (2, 4, "Entangled"),
        (3, 3, "ClassicallyGenerated"), (2, 5, "Entangled"), (2, 5, "Entangled"),
    )
    trace_items = len(CYCLE)
    POOL_CYCLES = 10
    TABLES = {
        "ClassicallyGenerated": _hidden_variable_table,
        "Entangled": _entangled_table,
        "Signalling": _copy_psi_table,
    }

    def generate(self, rng, workdir):
        for i in range(self.POOL_CYCLES * len(self.CYCLE)):
            n_out, n_states, verdict = self.CYCLE[i % len(self.CYCLE)]
            q = self.TABLES[verdict](rng, n_out, n_states)
            prior_a, prior_b = _prior(rng, n_states), _prior(rng, n_states)
            p = q * prior_a[None, None, :, None] * prior_b[None, None, None, :]
            if verdict == "Entangled" and not chsh_functional(q) > 0.75 + 1e-6:
                raise RuntimeError("generated entangled table has no CHSH violation")
            if verdict == "Signalling" and not signalling_deviation(p) > 1e-3:
                raise RuntimeError("generated copy-psi table does not signal")
            doc = {
                "format": 1, "kind": "distribution",
                "s": list(_labels(n_out)), "t": list(_labels(n_out)),
                "phi": list(_labels(n_states)), "psi": list(_labels(n_states)),
                "probabilities": [float(x) for x in p.reshape(-1)],
            }
            data = (json.dumps(doc) + "\n").encode()
            path = workdir / f"{i:04d}.dist"
            path.write_bytes(data)
            _feed(self.hash, data)
            self.items.append({
                "kind": f"v{(n_out ** n_states) ** 2}-{verdict}",
                "path": str(path), "verdict": verdict,
                "sha256": hashlib.sha256(data).hexdigest(),
            })

    def run(self, index):
        item = self.item(index)
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            code = cli.main(["classify", item["path"], "--json"])
        return code, buffer.getvalue()

    def check(self, index, out):
        item = self.item(index)
        code, text = out
        if code != 0:
            return f"exit code {code}"
        report = json.loads(text)
        errors = []
        verdict = report["verdicts"]["classification"]
        if verdict != item["verdict"]:
            errors.append(f"verdict {verdict}, built as {item['verdict']}")
        if report["inputs"]["distribution"]["sha256"] != item["sha256"]:
            errors.append("reported input digest differs from the document's sha256")
        return "; ".join(errors) or None

    def facts(self):
        return {**super().facts(), "cycle": [
            {"signals": n, "states": k, "vertices": (n ** k) ** 2, "verdict": v}
            for n, k, v in self.CYCLE]}


class Verify(Workload):
    """Small library checks: no-signalling, Theorem 2 and an exact classical value."""

    name = "verify"
    # the shapes cycle with period 36 (1-3 choices, a POVM one time in three,
    # 4 Theorem-2 shapes, 9 classical shapes); seeds change only the contents
    T2_SHAPES = ((2, 2), (2, 3), (3, 2), (3, 3))
    CLASSICAL_SHAPES = tuple((a, b) for a in (2, 3, 4) for b in (2, 3, 4))
    trace_items = 108
    POOL = 3 * 36

    def generate(self, rng, workdir):
        for i in range(self.POOL):
            ns_rho = _random_state(rng)
            ns_first = [_projectors(t) for t in rng.uniform(0.0, math.pi, 1 + i % 3)]
            ns_second = (_random_povm(rng, 3) if (i // 3) % 3 == 0
                         else _projectors(rng.uniform(0.0, math.pi)))

            n_a, n_b = self.T2_SHAPES[i % len(self.T2_SHAPES)]
            t2_rho = _random_state(rng)
            t2_a = [_projectors(t) for t in rng.uniform(0.0, math.pi, n_a)]
            t2_b = [_projectors(t) for t in rng.uniform(0.0, math.pi, n_b)]
            t2_prior_a, t2_prior_b = _prior(rng, n_a), _prior(rng, n_b)
            t2_payoff = np.repeat(rng.random((2, 2, n_a))[..., None], n_b, axis=3)
            t2_table = (_outcome_table(t2_rho, t2_a, t2_b)
                        * t2_prior_a[None, None, :, None] * t2_prior_b[None, None, None, :])

            c_a, c_b = self.CLASSICAL_SHAPES[i % len(self.CLASSICAL_SHAPES)]
            classical = {"payoff": rng.random((2, 2, c_a, c_b)),
                         "prior_a": _prior(rng, c_a), "prior_b": _prior(rng, c_b)}

            item = {
                "kind": "verify",
                "ns": (ns_rho, ns_first, ns_second),
                "t2": {"rho": t2_rho, "ops_a": t2_a, "ops_b": t2_b, "prior_a": t2_prior_a,
                       "prior_b": t2_prior_b, "payoff": t2_payoff, "table": t2_table},
                "classical": classical,
            }
            _feed(self.hash, ns_rho, np.array(ns_first), np.array(ns_second), t2_rho,
                  np.array(t2_a), np.array(t2_b), t2_prior_a, t2_prior_b, t2_payoff,
                  classical["payoff"], classical["prior_a"], classical["prior_b"])
            self.items.append(item)

    def facts(self):
        return {**super().facts(), "theorem2_shapes": self.T2_SHAPES,
                "classical_shapes": self.CLASSICAL_SHAPES}

    def run(self, index):
        item = self.item(index)
        rho, first, second = item["ns"]
        ns = quantum.no_signalling_check(
            quantum.DensityMatrix(rho),
            [quantum.Measurement(tuple(ops)) for ops in first],
            quantum.Measurement(tuple(second)),
        )

        t2 = item["t2"]
        fam_a = quantum.MeasurementFamily(
            {str(f): quantum.Measurement(tuple(ops)) for f, ops in enumerate(t2["ops_a"])})
        fam_b = quantum.MeasurementFamily(
            {str(w): quantum.Measurement(tuple(ops)) for w, ops in enumerate(t2["ops_b"])})
        dist = signals.distribution_from_quantum(quantum.DensityMatrix(t2["rho"]), fam_a, fam_b,
                                                 t2["prior_a"], t2["prior_b"])
        report = signals.verify_theorem2(_game(t2), dist)

        solution = games.classical_value(_game(item["classical"]))
        return ns, dist, report, solution

    def check(self, index, out):
        item = self.item(index)
        ns, dist, report, solution = out
        errors = []

        rho, _, second = item["ns"]
        reduced = np.einsum("ikil->kl", rho.reshape(2, 2, 2, 2))
        marginal = [np.trace(reduced @ n).real for n in second]
        if not ns.max_deviation <= VERIFY_TOL:
            errors.append(f"no-signalling deviation {ns.max_deviation!r}")
        if np.max(np.abs(np.array(ns.marginal) - marginal)) > RECOMPUTE_TOL:
            errors.append("second-party marginal differs from the partial trace")

        t2 = item["t2"]
        if np.max(np.abs(dist.table - t2["table"])) > RECOMPUTE_TOL:
            errors.append("distribution_from_quantum differs from the np.kron table")
        expected = float(np.sum(t2["payoff"] * t2["table"]))
        if abs(report.payoff_original - expected) > RECOMPUTE_TOL:
            errors.append(f"Theorem-2 payoff {report.payoff_original!r}, expected {expected!r}")
        if not report.difference <= VERIFY_TOL:
            errors.append(f"Theorem-2 difference {report.difference!r}")
        verdict = report.transformed_classification.verdict.value
        if verdict != "ClassicallyGenerated":
            errors.append(f"Theorem-2 transform is {verdict}")

        c = item["classical"]
        value = _enumerate_classical(c)
        if abs(solution.value - value) > RECOMPUTE_TOL:
            errors.append(f"classical value {solution.value!r}, enumeration gives {value!r}")
        picked_a = [int(solution.strategy_a[f]) for f in _labels(c["payoff"].shape[2])]
        picked_b = [int(solution.strategy_b[w]) for w in _labels(c["payoff"].shape[3])]
        achieved = _pair_values(c, np.array([picked_a]), np.array([picked_b]))[0, 0]
        if abs(achieved - value) > RECOMPUTE_TOL:
            errors.append(f"returned strategies score {achieved!r}, not {value!r}")
        return "; ".join(errors) or None


def _pure_strategies(n_states: int) -> np.ndarray:
    """Every map state -> action in {0, 1}, as rows of action indices."""
    return (np.arange(2 ** n_states)[:, None] >> np.arange(n_states)[::-1][None, :]) & 1


def _pair_values(game: dict, rows_a: np.ndarray, rows_b: np.ndarray) -> np.ndarray:
    onehot_a = np.eye(2)[rows_a]   # (i, f, a)
    onehot_b = np.eye(2)[rows_b]   # (j, w, b)
    return np.einsum("ifa,jwb,abfw,f,w->ij", onehot_a, onehot_b,
                     game["payoff"], game["prior_a"], game["prior_b"])


def _enumerate_classical(game: dict):
    rows_a = _pure_strategies(game["payoff"].shape[2])
    rows_b = _pure_strategies(game["payoff"].shape[3])
    return float(_pair_values(game, rows_a, rows_b).max())


WORKLOADS = {w.name: w for w in (QuantumSearch, Corroborate, Classify, Verify)}
