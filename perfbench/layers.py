"""The traced run: per-layer metrics, measured from outside the library.

Every traced run covers all four workloads, whatever --workload names, so
each per-layer metric is measured on the workload that exercises it:

- curves:        k_holmstedt_weighted, k_dispatch, main_grid_reduce, lp_norm
- general-point: k_general, solve_monotone, CoeffField.scaled
- cli:           k_p_equal, k_q_equal, kfunc self time, rearrangement,
                 read_field, interp, and the cli.* process split
- oracle:        k_cuboid_continuous, vertex_tables

Each workload runs a fixed slice of its universe untraced, traced, and
untraced again; the traced pass gives the spans, and traced against the
mean of the untraced passes gives the tracing overhead.  The run then
times the route table of six K routes at three field sizes, and the seven
verify suites, untraced.
"""

from __future__ import annotations

import contextlib
import io
import math
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import harness
import workloads
from tracer import Tracer, descendants_named, summarize

TRACED_MODULES = ("coeffs", "norms", "rearrange", "kfunc", "interp", "oracle")
ROUTES = {  # route -> (idx0, idx1) as (s, p, q)
    "degenerate": ((0.5, 2.0, 2.0), (0.5, 2.0, 2.0)),
    "weighted-split": ((0.0, 2.0, 1.0), (1.0, 2.0, 1.0)),
    "composed-split": ((0.0, 2.0, 1.0), (1.0, 2.0, 2.0)),
    "rearrangement": ((0.5, 2.0, 1.0), (0.5, 2.0, 2.0)),
    "layer-sum": ((0.0, 1.0, 2.0), (1.0, 2.0, 2.0)),
    "general": ((0.0, 1.0, 1.0), (1.0, 2.0, 2.0)),
}
ROUTE_SIZES = (16, 512, 12288)
IMPORT_SAMPLES = 5


def make_tracer(bk):
    import besovk.interp as interp

    def expansions(args, kwargs, rep):
        quad = kwargs.get("quad") or (args[3] if len(args) > 3 else None)
        quad = quad or bk.QuadratureSpec()
        return round((rep.t_max_exp - quad.t_max_exp) / interp._EXPAND_STEP)

    tracer = Tracer(counters={
        "oracle.vertex_tables": lambda args, kwargs, res: 2 ** args[0].spec.total_coeffs,
        "interp.interp_norm_report": expansions,
    })
    tracer.install("besovk", TRACED_MODULES,
                   methods=[(bk.CoeffField, "scaled", "coeffs.CoeffField.scaled")])
    return tracer


class _Tally:
    """Ops attempted, failed (raised or exited non-zero) and regressed."""

    def __init__(self):
        self.attempted = self.failed = self.regressions = 0

    def add(self, wl, refs, outcomes):
        oks, regressions = harness.judge(wl, refs, outcomes)
        self.attempted += len(oks)
        self.failed += sum(err is not None for _, _, err in outcomes)
        self.regressions += regressions

    def add_one(self, ok):
        self.attempted += 1
        self.failed += not ok
        self.regressions += not ok


def _three_passes(runner, wl, refs, insts, tally):
    """Untraced, traced, untraced passes of runner over insts.

    Returns (tracer, overhead fraction, untraced latencies): the traced
    time against the mean of the two untraced ones, each at the reference
    speed (harness.at_reference_speed).
    """
    walls, tracer, plain_lat = [], None, []
    for traced in (False, True, False):
        if traced:
            tracer = make_tracer(wl.bk)
        yards = []
        try:
            outcomes, lat = harness.run_ops(runner, insts, tracer if traced else None, yards)
        finally:
            if traced:
                tracer.uninstall()
        tally.add(wl, refs, outcomes)
        walls.append(math.fsum(harness.at_reference_speed(lat, yards)))
        if not traced:
            plain_lat += lat
    plain = 0.5 * (walls[0] + walls[2])
    return tracer, (walls[1] - plain) / plain, plain_lat


class _InProcessCli:
    """Replays a cli op's argv through besovk.cli.main in this process."""

    def __init__(self, wl):
        import besovk.cli

        self.cli = besovk.cli
        self.error_of = wl.error_of

    def run(self, inst):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self.cli.main(inst.payload)
        return {"code": code, "stdout": out.getvalue()}


def _per(stats, name, field, ops, scale=1.0):
    st = stats.get(name, {"calls": 0, "entries": 0, "seconds": 0.0, "count": 0,
                          "self_seconds": 0.0})
    return scale * st[field] / ops


def _ms_per_call(stats, name):
    """ms per call from outside the function (entries, not re-entries)."""
    st = stats.get(name)
    return 1000.0 * st["seconds"] / st["entries"] if st and st["entries"] else 0.0


def _self_ms(stats, prefix, ops):
    return 1000.0 * sum(st["self_seconds"] for n, st in stats.items()
                        if n.startswith(prefix)) / ops


def _slice(name, seed, workdir):
    return harness.setup(name, seed, workdir,
                         limit=workloads.WORKLOADS[name].slice_size)


def trace_curves(seed, workdir, tally, m):
    wl, refs, insts = _slice("curves", seed, workdir)
    tracer, m["bench.tracing_overhead_frac.curves"], _ = _three_passes(wl, wl, refs, insts, tally)
    stats, ops = summarize(tracer.spans), len(insts)
    m["kfunc.k_holmstedt_weighted.ms_per_call"] = _ms_per_call(stats, "kfunc.k_holmstedt_weighted")
    m["kfunc.k_dispatch.calls_per_op"] = _per(stats, "kfunc.k_dispatch", "calls", ops)
    m["norms.main_grid_reduce.calls_per_op"] = _per(stats, "norms.main_grid_reduce", "calls", ops)
    m["norms.lp_norm.calls_per_op"] = _per(stats, "norms.lp_norm", "calls", ops)
    return tracer


def trace_general(seed, workdir, tally, m):
    wl, refs, insts = _slice("general-point", seed, workdir)
    tracer, m["bench.tracing_overhead_frac.general-point"], _ = _three_passes(
        wl, wl, refs, insts, tally)
    stats, ops = summarize(tracer.spans), len(insts)
    m["kfunc.k_general.ms_per_call"] = _ms_per_call(stats, "kfunc.k_general")
    m["kfunc.solve_monotone.calls_per_op"] = _per(stats, "kfunc.solve_monotone", "calls", ops)
    m["coeffs.CoeffField.scaled.calls_per_op"] = _per(stats, "coeffs.CoeffField.scaled", "calls", ops)
    return tracer


def trace_oracle(seed, workdir, tally, m):
    wl, refs, insts = _slice("oracle", seed, workdir)
    tracer, m["bench.tracing_overhead_frac.oracle"], _ = _three_passes(wl, wl, refs, insts, tally)
    stats, ops = summarize(tracer.spans), len(insts)
    m["oracle.k_cuboid_continuous.ms_per_op"] = _per(stats, "oracle.k_cuboid_continuous", "seconds", ops, 1000.0)
    m["oracle.vertex_tables.ms_per_op"] = _per(stats, "oracle.vertex_tables", "seconds", ops, 1000.0)
    m["oracle.vertex_tables.masks_per_op"] = _per(stats, "oracle.vertex_tables", "count", ops)
    return tracer


def trace_cli(seed, workdir, tally, m):
    wl, refs, insts = _slice("cli", seed, workdir)
    outcomes, sub_lat = harness.run_ops(wl, insts)
    tally.add(wl, refs, outcomes)
    tracer, m["bench.tracing_overhead_frac.cli"], plain_lat = _three_passes(
        _InProcessCli(wl), wl, refs, insts, tally)

    stats, ops = summarize(tracer.spans), len(insts)
    interp_calls = max(1, stats.get("interp.interp_norm_report", {}).get("entries", 0))
    m["kfunc.k_p_equal.ms_per_call"] = _ms_per_call(stats, "kfunc.k_p_equal")
    m["kfunc.k_q_equal.ms_per_call"] = _ms_per_call(stats, "kfunc.k_q_equal")
    m["kfunc.self_ms_per_op"] = _self_ms(stats, "kfunc.", ops)
    m["rearrange.rearrangement.calls_per_op"] = _per(stats, "rearrange.rearrangement", "calls", ops)
    m["rearrange.rearrangement.ms_per_op"] = _per(stats, "rearrange.rearrangement", "seconds", ops, 1000.0)
    m["coeffs.read_field.ms_per_op"] = _per(stats, "coeffs.read_field", "seconds", ops, 1000.0)
    # interp metrics are per interpnorm op (kcurve ops do not reach interp)
    m["interp.interp_norm_report.ms_per_op"] = _per(stats, "interp.interp_norm_report", "seconds", interp_calls, 1000.0)
    m["interp.self_ms_per_op"] = _self_ms(stats, "interp.", interp_calls)
    m["interp.k_evals_per_op"] = descendants_named(tracer.spans, "interp.", "kfunc.k_dispatch") / interp_calls
    m["interp.window_expansions_per_op"] = _per(stats, "interp.interp_norm_report", "count", interp_calls)

    probe = ("import time; t = time.perf_counter(); import besovk.cli; "
             "print(time.perf_counter() - t)")
    env = workloads.child_env()
    imports = [float(subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                                    capture_output=True, text=True, timeout=120).stdout)
               for _ in range(IMPORT_SAMPLES)]
    m["cli.import_ms"] = 1000.0 * statistics.median(imports)
    m["cli.main.ms_per_op"] = 1000.0 * statistics.median(plain_lat)
    m["cli.process_overhead_ms"] = 1000.0 * (statistics.median(sub_lat)
                                             - statistics.median(plain_lat))
    return tracer


def route_table(bk, seed, tally, m):
    """ms per k_dispatch at t = 1, and per t of a 9-point k_curve."""
    import numpy as np

    grid = bk.default_t_grid(-8.0, 8.0, 0.5)
    for n_coeffs in ROUTE_SIZES:
        sizes = workloads.dyadic_sizes(5 if n_coeffs == 16 else 10)
        if n_coeffs == 12288:
            sizes = tuple(3 * s for s in workloads.dyadic_sizes(13))
        rng = np.random.default_rng([15, n_coeffs, seed])
        layers = workloads.gen_layers(rng, sizes, "uniform-random")
        field = bk.CoeffField(bk.GridSpec(n=1, J=len(sizes), layer_sizes=sizes), layers)
        big = n_coeffs == 12288
        for route, (i0, i1) in ROUTES.items():
            query = bk.InterpQuery(bk.BesovIndex(*i0), bk.BesovIndex(*i1))
            k_times, curve_times = [], []
            for _ in range(3 if big else 5):
                t0 = time.perf_counter()
                k, label = bk.k_dispatch(field, query, 1.0)
                k_times.append(time.perf_counter() - t0)
                tally.add_one(route in label and np.isfinite(k) and k > 0)
            for _ in range(1 if big and route == "general" else 3):
                t0 = time.perf_counter()
                curve = bk.k_curve(field, query, ts=grid)
                curve_times.append((time.perf_counter() - t0) / len(grid))
                # finite and positive only: the table times routes, and some
                # routes' known non-monotone curves are checked on the workloads
                tally.add_one(bool(np.isfinite(curve.k).all() and (curve.k > 0).all()))
            m[f"kfunc.route.{route}.n{n_coeffs}.k_ms"] = 1000.0 * statistics.median(k_times)
            m[f"kfunc.route.{route}.n{n_coeffs}.curve_ms_per_t"] = 1000.0 * statistics.median(curve_times)


def verify_suites(bk, tally, m):
    """Each registered verify suite plus run_endpoints, called directly."""
    import besovk.verify as verify

    suites = dict(verify.SUITES)
    suites.setdefault("endpoints", verify.run_endpoints)
    for name, fn in suites.items():
        t0 = time.perf_counter()
        try:
            passed = bool(fn()["passed"])
        except Exception:  # a suite that raises is a failed check, not a crash
            passed = False
        m[f"verify.{name}.s"] = time.perf_counter() - t0
        tally.add_one(passed)


def traced_run(seed):
    """All per-layer metrics; returns (result dict, units)."""
    harness.BUILD.mkdir(exist_ok=True)
    spans_dir = harness.BUILD / "spans"
    spans_dir.mkdir(exist_ok=True)
    tally, m = _Tally(), {}
    workdir = tempfile.mkdtemp(dir=harness.BUILD)
    try:
        for name, fn in (("curves", trace_curves), ("general-point", trace_general),
                         ("cli", trace_cli), ("oracle", trace_oracle)):
            tracer = fn(seed, workdir, tally, m)
            tracer.write(spans_dir / f"{name}.jsonl")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    import besovk

    route_table(besovk, seed, tally, m)
    verify_suites(besovk, tally, m)
    return tally, m


def unit_of(name):
    last = name.rsplit(".", 1)[-1]
    if last == "s":
        return "s"
    if last.endswith("_ms") or last.startswith("ms_per") or "_ms_per" in last:
        return "ms"
    if "tracing_overhead_frac" in name:
        return "ratio"
    return "count"
