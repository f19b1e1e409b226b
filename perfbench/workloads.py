"""Workload definitions: input pools, ops, references and output checks.

Each workload owns a fixed pool of instances.  Instance i is generated from
numpy's generator seeded with (workload tag, i), by this file's own code, so
the inputs do not depend on the library under test.  refs/<workload>.json
holds, for every pool instance, the output recorded from the library by
record_refs.py, a digest of the generated input, and the op's cost at
recording time.

A run's universe takes one instance from each pair of pool neighbours in
cost order (pairs formed within a stratum), chosen by --seed, so different
seeds give different inputs with nearly the same cost profile.  A run then
makes whole passes over the universe: every run of a workload with a given
seed executes the same multiset of ops.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import harness

REFS = Path(__file__).resolve().parent / "refs"

INF = math.inf
FULL_POOL = (0.5, 1.0, 1.5, 2.0, INF)
CONVEX_POOL = (1.0, 1.5, 2.0, INF)
RTOL = 1e-6          # reference agreement; leaves room for reordered sums
BAND = 8.0           # K <= BAND * min(|f|_A0, t |f|_A1) on sum-form routes
GENERAL_BAND = 16.0  # the max-form power composition's verify band


# ---------------------------------------------------------------------------
# input generation (independent of the library under test)


def dyadic_sizes(J):
    """Layer sizes 1, 1, 2, 4, ..., 2^(J-2): 2^(J-1) coefficients."""
    return (1,) + tuple(2 ** (j - 1) for j in range(1, J))


def gen_layers(rng, sizes, kind):
    layers, rank = [], 0
    for j, m in enumerate(sizes):
        if kind == "uniform-random":
            v = 1.0 - rng.random(m)
        elif kind == "lacunary":
            v = 2.0 ** (-float(j * j)) * (0.5 + 0.5 * (1.0 - rng.random(m)))
        elif kind == "geometric-decay":
            v = 0.8 ** (rank + np.arange(m)) * (0.75 + 0.25 * (1.0 - rng.random(m)))
        elif kind == "wide-range":
            v = 10.0 ** rng.uniform(-300.0, 0.0, size=m)
        else:
            raise ValueError(kind)
        layers.append(np.asarray(v, dtype=float))
        rank += m
    return layers


def besov_norm_np(layers, n, s, p, q):
    """Weighted l^q of per-layer l^p norms, rescaled so powers stay finite."""
    scale = max(float(v.max()) for v in layers)
    if scale == 0.0:
        return 0.0
    terms = []
    for j, v in enumerate(layers):
        w = 2.0 ** (j * (s + n / 2 - (0.0 if math.isinf(p) else n / p)))
        x = v / scale
        lp = float(x.max()) if math.isinf(p) else float(np.sum(x ** p)) ** (1.0 / p)
        terms.append(w * lp)
    t = np.array(terms)
    agg = float(t.max()) if math.isinf(q) else float(np.sum(t ** q)) ** (1.0 / q)
    return scale * agg


def digest(layers, params):
    h = hashlib.sha256(json.dumps(params, sort_keys=True).encode())
    for v in layers:
        h.update(np.ascontiguousarray(v, dtype="<f8").tobytes())
    return h.hexdigest()[:16]


def _rng(tag, i):
    return np.random.default_rng([tag, i])


def _distinct(rng, pool):
    a, b = rng.choice(np.array(pool), size=2, replace=False)
    return float(a), float(b)


def _close(got, want):
    return want is not None and abs(got - want) <= RTOL * abs(want)


def _all_close(got, want):
    return want is not None and len(got) == len(want) and all(map(_close, got, want))


def _k_invariants(ks, ts, n0, n1, band):
    """K finite, >= 0, nondecreasing in t, and within band of min(N0, t N1)."""
    ks, ts = np.asarray(ks, dtype=float), np.asarray(ts, dtype=float)
    if not np.isfinite(ks).all() or (ks < 0).any():
        return False
    if len(ks) > 1 and (np.diff(ks) < -1e-9 * np.abs(ks[1:])).any():
        return False
    cap = band * np.minimum(n0, ts * n1) * (1.0 + 1e-9)
    return bool((ks <= cap).all())


def recorded_defect(ref):
    """The recorded output raised, or failed the invariant checks."""
    return "error" in ref or ref.get("invalid", False)


class Instance:
    """One generated input plus what the checks need."""

    def __init__(self, index, layers, n, params):
        self.index = index
        self.layers = layers
        self.n = n
        self.params = params
        self.digest = digest(layers, params)
        self.payload = None   # the object handed to the op, built in setup

    def norms(self, idx0, idx1):
        return (besov_norm_np(self.layers, self.n, *idx0),
                besov_norm_np(self.layers, self.n, *idx1))


# ---------------------------------------------------------------------------
# workloads


class Workload:
    """Base: pool size, strata and passes; subclasses define the op."""

    name = ""
    tag = 0
    pool_size = 0
    passes = 2          # whole passes at the nominal 20-second run
    slice_size = 0      # ops per workload in the traced run
    bk = None           # the besovk package; ops look functions up at call
                        # time so that an installed tracer sees the call

    def item(self, i):
        raise NotImplementedError

    def stratum(self, inst):
        return 0

    def build(self, inst, workdir):
        """Turn an instance into the op's argument (untimed set-up)."""
        raise NotImplementedError

    def field(self, inst):
        spec = self.bk.GridSpec(n=inst.n, J=len(inst.layers),
                                layer_sizes=tuple(len(v) for v in inst.layers))
        return self.bk.CoeffField(spec, inst.layers)

    def indices(self, inst):
        return (self.bk.BesovIndex(*inst.params["idx0"]),
                self.bk.BesovIndex(*inst.params["idx1"]))

    def run(self, inst):
        raise NotImplementedError

    def reference(self, inst, output):
        """JSON-able form of an op's output, as stored in refs/."""
        return output

    def error_of(self, output):
        """A failure the op reported without raising (a CLI exit code)."""
        return None

    def check(self, inst, output, ref):
        """(agrees with the reference, passes the invariants)."""
        raise NotImplementedError

    # -- pool, universe ----------------------------------------------------

    def load_refs(self):
        with open(REFS / f"{self.name}.json", encoding="utf-8") as fh:
            doc = json.load(fh)
        if len(doc["items"]) != self.pool_size:
            raise RuntimeError(f"{self.name}: refs hold {len(doc['items'])} "
                               f"items, pool has {self.pool_size}")
        return doc["items"]

    def universe(self, seed, refs, limit=None):
        """One seed-chosen instance from each pair of cost neighbours.

        Pairs form separately among the instances whose recorded output was
        defective and the rest, so every universe carries the pool's cost
        profile and its share of known defects; an odd one out is kept.

        With limit, the first `limit` of the shuffled universe taken round
        robin over the strata, so a slice keeps every stratum.
        """
        rng = np.random.default_rng(seed)
        groups = {}
        for inst in map(self.item, range(self.pool_size)):
            if inst.digest != refs[inst.index]["digest"]:
                raise RuntimeError(f"{self.name}: pool item {inst.index} no longer "
                                   "matches the input its reference was recorded on")
            groups.setdefault(recorded_defect(refs[inst.index]["ref"]), []).append(inst)
        chosen = []
        for key in sorted(groups):
            members = sorted(groups[key],
                             key=lambda x: (refs[x.index]["cost_ms"], x.index))
            for a in range(0, len(members), 2):
                pair = members[a:a + 2]
                chosen.append(pair[int(rng.integers(len(pair)))])
        chosen = [chosen[k] for k in rng.permutation(len(chosen))]
        if limit is None:
            return chosen
        queues = {}
        for inst in chosen:
            queues.setdefault(self.stratum(inst), []).append(inst)
        picked = []
        while len(picked) < min(limit, len(chosen)):
            for key in sorted(queues, key=str):
                if queues[key] and len(picked) < limit:
                    picked.append(queues[key].pop(0))
        return picked


class Curves(Workload):
    """k_curve on the default 81-point grid, composed-split couples."""

    name = "curves"
    tag = 11
    pool_size = 200
    passes = 1
    slice_size = 4
    kinds = ("uniform-random", "geometric-decay")

    def item(self, i):
        rng = _rng(self.tag, i)
        kind = self.kinds[i % 2]
        p = float(rng.choice(np.array(FULL_POOL)))
        q0, q1 = _distinct(rng, (1.0, 1.5, 2.0, INF))
        s0 = float(rng.uniform(-1.0, 1.0))
        s1 = s0 + float(rng.choice((-1.0, 1.0))) * float(rng.uniform(0.5, 1.0))
        layers = gen_layers(rng, dyadic_sizes(10), kind)
        return Instance(i, layers, 1, {"kind": kind, "idx0": [s0, p, q0],
                                       "idx1": [s1, p, q1]})

    def stratum(self, inst):
        return inst.params["kind"]

    def build(self, inst, workdir):
        field = self.field(inst)
        query = self.bk.InterpQuery(*self.indices(inst))
        inst.payload = (field, query)

    def run(self, inst):
        field, query = inst.payload
        curve = self.bk.k_curve(field, query)
        return {"t": curve.t.tolist(), "k": curve.k.tolist(), "method": curve.method}

    def reference(self, inst, output):
        return {"k": output["k"], "method": output["method"]}

    def check(self, inst, output, ref):
        n0, n1 = inst.norms(inst.params["idx0"], inst.params["idx1"])
        return (output["method"] == ref.get("method") and _all_close(output["k"], ref.get("k")),
                _k_invariants(output["k"], output["t"], n0, n1, BAND))


class GeneralPoint(Workload):
    """One k_dispatch at a single t on a GENERAL couple (p and q differ)."""

    name = "general-point"
    tag = 12
    pool_size = 400
    slice_size = 40
    kinds = ("uniform-random", "lacunary", "geometric-decay", "wide-range")

    def item(self, i):
        rng = _rng(self.tag, i)
        kind = self.kinds[i % 4]
        p0, p1 = _distinct(rng, (1.0, 2.0, INF))
        q0, q1 = _distinct(rng, (0.5, 1.0, 2.0, 3.0))
        s0, s1 = (float(x) for x in rng.uniform(-2.0, 2.0, size=2))
        t = float(2.0 ** rng.uniform(-4.0, 4.0))
        layers = gen_layers(rng, dyadic_sizes(7), kind)
        return Instance(i, layers, 1, {"kind": kind, "idx0": [s0, p0, q0],
                                       "idx1": [s1, p1, q1], "t": t})

    def stratum(self, inst):
        return inst.params["kind"]

    def build(self, inst, workdir):
        field = self.field(inst)
        query = self.bk.InterpQuery(*self.indices(inst))
        inst.payload = (field, query, inst.params["t"])

    def run(self, inst):
        field, query, t = inst.payload
        k, route = self.bk.k_dispatch(field, query, t)
        return {"k": float(k), "route": route}

    def check(self, inst, output, ref):
        n0, n1 = inst.norms(inst.params["idx0"], inst.params["idx1"])
        return (output["route"] == ref.get("route") and _close(output["k"], ref.get("k")),
                _k_invariants([output["k"]], [inst.params["t"]], n0, n1, GENERAL_BAND))


class Cli(Workload):
    """One `python -m besovk interpnorm|kcurve` process per op."""

    name = "cli"
    tag = 13
    pool_size = 208
    passes = 1
    slice_size = 8
    routes = ("degenerate", "weighted-split", "rearrangement", "layer-sum")
    kinds = ("uniform-random", "lacunary", "geometric-decay")

    def __init__(self):
        self.env = child_env()

    def item(self, i):
        rng = _rng(self.tag, i)
        cmd = ("interpnorm", "kcurve")[i % 2]
        route = self.routes[(i // 2) % 4]
        kind = self.kinds[int(rng.integers(3))]
        s0 = float(rng.uniform(-1.0, 1.0))
        s1 = s0 + float(rng.choice((-1.0, 1.0))) * float(rng.uniform(0.5, 1.5))
        p0, p1 = _distinct(rng, FULL_POOL)
        q0, q1 = _distinct(rng, FULL_POOL)
        if route == "degenerate":
            idx0 = idx1 = [s0, p0, q0]
        elif route == "weighted-split":
            idx0, idx1 = [s0, p0, q0], [s1, p0, q0]
        elif route == "rearrangement":
            idx0, idx1 = [s0, p0, q0], [s0, p0, q1]
        else:
            idx0, idx1 = [s0, p0, q0], [s1, p1, q0]
        params = {"cmd": cmd, "route": route, "kind": kind,
                  "idx0": idx0, "idx1": idx1}
        if cmd == "interpnorm":
            params["theta"] = float(rng.uniform(0.25, 0.75))
            params["r"] = float(rng.choice((1.0, 2.0)))
        layers = gen_layers(rng, dyadic_sizes(10), kind)
        return Instance(i, layers, 1, params)

    def stratum(self, inst):
        return (inst.params["cmd"], inst.params["route"])

    def argv(self, inst, path):
        prm = inst.params
        argv = [prm["cmd"], "--input", str(path)]
        for side, idx in (("0", prm["idx0"]), ("1", prm["idx1"])):
            for key, val in zip("spq", idx):
                argv += [f"--{key}{side}", repr(val)]
        if prm["cmd"] == "interpnorm":
            argv += ["--theta", repr(prm["theta"]), "--r", repr(prm["r"])]
        return argv

    def build(self, inst, workdir):
        path = Path(workdir) / f"field-{inst.index}.json"
        doc = {"n": inst.n, "layers": [{"j": j, "coeffs": v.tolist()}
                                       for j, v in enumerate(inst.layers)]}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        inst.payload = self.argv(inst, path)

    def run(self, inst):
        # wait4 gives this child's own peak RSS; stderr is not read, so a
        # single pipe cannot deadlock
        with subprocess.Popen([sys.executable, "-m", "besovk", *inst.payload],
                              env=self.env, stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True) as proc:
            stdout = proc.stdout.read()
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        return {"code": proc.returncode, "stdout": stdout, "rss_kb": usage.ru_maxrss}

    def parse(self, inst, stdout):
        if inst.params["cmd"] == "interpnorm":
            doc = json.loads(stdout)
            return {"value": float(doc["value"])}
        rows = [line.split(",") for line in stdout.strip().splitlines()[1:]]
        return {"t": [float(r[0]) for r in rows], "k": [float(r[1]) for r in rows],
                "method": rows[0][2]}

    def reference(self, inst, output):
        return self.parse(inst, output["stdout"])

    def error_of(self, output):
        return f"exit {output['code']}" if output["code"] else None

    def check(self, inst, output, ref):
        try:
            got = self.parse(inst, output["stdout"])
        except (ValueError, KeyError, IndexError):
            return False, False
        if inst.params["cmd"] == "interpnorm":
            v = got["value"]
            return _close(v, ref.get("value")), math.isfinite(v) and v > 0
        n0, n1 = inst.norms(inst.params["idx0"], inst.params["idx1"])
        return (got["method"] == ref.get("method") and _all_close(got["k"], ref.get("k")),
                _k_invariants(got["k"], got["t"], n0, n1, BAND))


class Oracle(Workload):
    """k_cuboid_continuous plus vertex_tables(...).k at one t, N <= 12,
    convex regime, fields drawn as in verify.run_vertex_band."""

    name = "oracle"
    tag = 14
    pool_size = 400
    slice_size = 20

    def item(self, i):
        rng = _rng(self.tag, i)
        J = int(rng.integers(1, 4))
        budget, sizes = 12 - J, []
        for _ in range(J):
            extra = int(rng.integers(0, min(budget, 3) + 1)) if budget > 0 else 0
            sizes.append(1 + extra)
            budget -= extra
        n = int(rng.choice((1, 2)))
        layers = []
        for m in sizes:
            v = rng.uniform(0.1, 2.0, size=m)
            v[rng.random(m) < 0.15] = 0.0
            layers.append(v)
        if not any(v.any() for v in layers):
            layers[0][0] = 1.0
        idx = [[float(rng.uniform(-2.0, 2.0)), float(rng.choice(np.array(CONVEX_POOL))),
                float(rng.choice(np.array(CONVEX_POOL)))] for _ in range(2)]
        t = float(2.0 ** rng.uniform(-6.0, 6.0))
        return Instance(i, layers, n, {"idx0": idx[0], "idx1": idx[1], "t": t})

    def build(self, inst, workdir):
        inst.payload = (self.field(inst), *self.indices(inst), inst.params["t"])

    def run(self, inst):
        field, idx0, idx1, t = inst.payload
        cont = self.bk.k_cuboid_continuous(field, idx0, idx1, t)
        vert = self.bk.vertex_tables(field, idx0, idx1).k(t, 1.0)
        return {"cont": float(cont), "vert": float(vert)}

    def check(self, inst, output, ref):
        cont, vert, t = output["cont"], output["vert"], inst.params["t"]
        n0, n1 = inst.norms(inst.params["idx0"], inst.params["idx1"])
        return (_close(cont, ref.get("cont")) and _close(vert, ref.get("vert")),
                math.isfinite(cont) and math.isfinite(vert) and cont >= 0
                and cont <= vert * (1.0 + 1e-9)
                and vert <= 2.0 * cont + 1e-9
                and vert <= min(n0, t * n1) * (1.0 + 1e-9))


def import_besovk():
    """Import besovk from the checkout's src/, never from anywhere else."""
    src = harness.ROOT / "src"
    if not (src / "besovk" / "__init__.py").is_file():
        raise SystemExit(f"error: no besovk sources under {src}")
    sys.path.insert(0, str(src))
    import besovk

    if Path(besovk.__file__).resolve().parent != (src / "besovk").resolve():
        raise SystemExit(f"error: imported besovk from {besovk.__file__}, not {src}")
    return besovk


def child_env():
    """Environment for besovk subprocesses: checkout sources, one thread,
    bytecode cached inside the checkout."""
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = str(harness.ROOT / "src")
    env["PYTHONPYCACHEPREFIX"] = sys.pycache_prefix
    return env


WORKLOADS = {w.name: w for w in (Curves(), GeneralPoint(), Cli(), Oracle())}
