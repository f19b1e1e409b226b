#!/usr/bin/env python3
"""besovk benchmark: fixed work per run, every output checked.

    python3 perfbench/run.py --workload curves --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1      # every workload
    python3 perfbench/run.py --workload cli --trace 1     # per-layer metrics

Run from the root of a checkout: besovk is imported from ./src.  The last
line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import harness

NOMINAL_SECONDS = 20   # --seconds at which each workload makes wl.passes passes
SETUP_SAMPLES = 7
PROBE_YARDSTICKS = 20   # yardstick reps on each side of a set-up probe
WORKLOAD_NAMES = ("curves", "general-point", "cli", "oracle")
E2E_UNITS = {"setup_s": "s", "ops_per_s": "1/s", "op_p50_ms": "ms",
             "op_p90_ms": "ms", "ok_rate": "ratio", "peak_rss_mb": "MB"}


def setup_probe(name, seed):
    """Child mode: one fresh-interpreter set-up, printed in seconds."""
    harness.BUILD.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=harness.BUILD) as workdir:
        t0 = time.perf_counter()
        harness.setup(name, seed, workdir)
        elapsed = time.perf_counter() - t0
    print(repr(elapsed))


def probe_setup(name, seed):
    """One set-up in a fresh interpreter: seconds as measured, and at the
    reference speed given by yardsticks timed here just before and after."""
    cmd = [sys.executable, __file__, "--setup-probe", "--workload", name,
           "--seed", str(seed)]
    before = harness.yardstick(PROBE_YARDSTICKS)
    proc = subprocess.run(cmd, check=True, capture_output=True, text=True, timeout=120)
    after = harness.yardstick(PROBE_YARDSTICKS)
    raw = float(proc.stdout.strip().splitlines()[-1])
    per_rep = (before + after) / (2 * PROBE_YARDSTICKS)
    return {"raw": raw, "scaled": raw * harness.YARDSTICK_S / per_rep}


def end_to_end(name, seed, seconds):
    harness.BUILD.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(dir=harness.BUILD)
    try:
        wl, refs, universe = harness.setup(name, seed, workdir)
        passes = max(1, round(wl.passes * seconds / NOMINAL_SECONDS))
        # each pass visits the universe in its own seed-derived order
        ops = [inst for p in range(passes)
               for inst in random.Random(f"{seed}/{p}").sample(universe, len(universe))]
        # set-up samples come from fresh interpreters spread over the run,
        # between ops and outside their timing
        cuts = [round(k * len(ops) / SETUP_SAMPLES) for k in range(SETUP_SAMPLES + 1)]
        outcomes, lat, yards, setups = [], [], [], []
        for lo, hi in zip(cuts, cuts[1:]):
            setups.append(probe_setup(name, seed))
            chunk, chunk_lat = harness.run_ops(wl, ops[lo:hi], yardsticks=yards)
            outcomes += chunk
            lat += chunk_lat
        if name == "cli":   # the largest child is the process a user waits on
            peak_mb = max(out["rss_kb"] for _, out, _ in outcomes) / 1024.0
        else:
            peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    oks, regressions = harness.judge(wl, refs, outcomes)
    # op times at the reference speed; an op that raised or exited
    # non-zero counts as +inf in the percentiles
    scaled = [math.inf if err is not None else t for (_, _, err), t
              in zip(outcomes, harness.at_reference_speed(lat, yards))]
    finite = [t for t in scaled if t < math.inf]
    metrics = {
        "setup_s": statistics.median(p["scaled"] for p in setups),
        "ops_per_s": len(finite) / math.fsum(finite),
        "op_p50_ms": 1000.0 * harness.nearest_rank(scaled, 50),
        "op_p90_ms": 1000.0 * harness.nearest_rank(scaled, 90),
        "ok_rate": sum(oks) / len(oks),
        "peak_rss_mb": peak_mb,
    }
    result = {"correct": regressions == 0, "attempted": len(oks),
              "failed": sum(err is not None for _, _, err in outcomes),
              "metrics": {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in metrics.items()}}
    detail = {"passes": passes, "universe": len(universe),
              "as_measured": {"setup_s": statistics.median(p["raw"] for p in setups),
                              "ops_per_s": len(lat) / math.fsum(lat),
                              "yardstick_ms": 1000.0 * math.fsum(y for y, _ in yards)
                              / sum(r for _, r in yards)},
              "setup_samples": setups,
              "ops": [[inst.index, t, y, r, err] for (inst, _, err), t, (y, r)
                      in zip(outcomes, lat, yards)]}
    return result, detail


def traced(seed):
    import layers

    tally, m = layers.traced_run(seed)
    result = {"correct": tally.regressions == 0, "attempted": tally.attempted,
              "failed": tally.failed,
              "metrics": {k: {"value": v, "unit": layers.unit_of(k)}
                          for k, v in sorted(m.items())}}
    return result, {}


def run_all(seed, seconds):
    """Every workload in its own process; metrics keyed workload/metric."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "0"]
        proc = subprocess.run(cmd, check=True, capture_output=True, text=True)
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        total["correct"] &= res["correct"]
        total["attempted"] += res["attempted"]
        total["failed"] += res["failed"]
        for key, val in res["metrics"].items():
            total["metrics"][f"{name}/{key}"] = val
    return total, {}


def main(argv=None):
    ap = argparse.ArgumentParser(description="besovk fixed-work benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=NOMINAL_SECONDS,
                    help="sets the work: whole passes scaled from the nominal "
                         f"{NOMINAL_SECONDS} s run, never a deadline")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0
    if args.trace:
        result, detail = traced(args.seed)
    elif args.workload == "all":
        result, detail = run_all(args.seed, args.seconds)
    else:
        result, detail = end_to_end(args.workload, args.seed, args.seconds)

    stamp = harness.env_stamp()
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "env": stamp, **detail, **result}
    results = harness.BUILD / "results"
    results.mkdir(parents=True, exist_ok=True)
    out = results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    for key, val in result["metrics"].items():
        print(f"{key:55s} {val['value']:>14.6g} {val['unit']}")
    if "as_measured" in detail:
        print("as measured: " + json.dumps(detail["as_measured"]))
    print(f"correct={result['correct']} attempted={result['attempted']} "
          f"failed={result['failed']}  env: {json.dumps(stamp)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
