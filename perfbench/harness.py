"""Shared run machinery: environment, set-up, the closed op loop, checks.

Importing this module pins BLAS/OpenMP pools to one thread before numpy
loads, and imports nothing heavy: set-up time starts before numpy and
besovk are imported, so `setup` does those imports itself.
"""

from __future__ import annotations

import math
import os
import platform
import sys
import time
from pathlib import Path

PINNED = {name: "1" for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                  "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS",
                                  "VECLIB_MAXIMUM_THREADS")}
os.environ.update(PINNED)

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build"

# compiled bytecode lives inside the checkout, so later imports read it
# the way an installed package would
sys.dont_write_bytecode = False
sys.pycache_prefix = str(BUILD / "pycache")


def setup(name, seed, workdir, limit=None):
    """Import besovk, draw the universe and build every op's argument.

    Returns (workload, refs, universe).  This is the span setup_s times.
    """
    import workloads

    wl = workloads.WORKLOADS[name]
    wl.bk = workloads.import_besovk()
    refs = wl.load_refs()
    universe = wl.universe(seed, refs, limit)
    for inst in universe:
        wl.build(inst, workdir)
    return wl, refs, universe


YARDSTICK_S = 1e-3     # the reference speed: one yardstick takes exactly 1 ms
YARDSTICK_SHARE = 0.05  # yardstick time after an op, as a share of the op's
YARDSTICK_MAX = 25      # yardsticks after one op, at most
YARDSTICK_MIN_REPS = 80  # an op's speed estimate pools at least this many,
                         # about a second of the machine's time around it


def yardstick(reps=1):
    """Fixed work independent of besovk: small numpy reductions inside a
    Python loop, the mix besovk's ops are made of.  Returns seconds for
    `reps` repetitions; one takes about a millisecond."""
    import numpy as np

    a = np.arange(1.0, 65.0)
    t0 = time.perf_counter()
    acc = 0.0
    for _ in range(150 * reps):
        acc += float(np.sum(a ** 1.5)) + sum(range(40))
    return time.perf_counter() - t0


def run_ops(wl, ops, tracer=None, yardsticks=None):
    """Closed loop, one client: each op starts when the previous ended.

    Returns (outcomes, latencies); an outcome is (instance, output or None,
    error label or None).  With a yardsticks list, the yardstick is timed
    after every op, outside the op's time, for about YARDSTICK_SHARE of it,
    and (seconds, reps) is appended to the list.
    """
    outcomes, lat = [], []
    clock = time.perf_counter
    for inst in ops:
        if tracer is not None:
            tracer.op = len(lat)
        t0 = clock()
        try:
            out, err = wl.run(inst), None
        except Exception as exc:  # an op failure is data, never fatal
            out, err = None, type(exc).__name__
        lat.append(clock() - t0)
        if err is None:
            err = wl.error_of(out)
        outcomes.append((inst, out, err))
        if yardsticks is not None:
            reps = min(YARDSTICK_MAX, max(1, round(YARDSTICK_SHARE * lat[-1] / YARDSTICK_S)))
            yardsticks.append((yardstick(reps), reps))
    return outcomes, lat


def at_reference_speed(lat, yardsticks):
    """Each latency times YARDSTICK_S over the yardstick's mean time per rep
    around it: the yardsticks just before and after the op, widened
    symmetrically until they pool YARDSTICK_MIN_REPS reps.  That is the op's
    time on a machine running at the reference speed.  A shared VM's speed
    drifts by tens of percent within minutes; the ratio to a fixed
    yardstick timed alongside does not."""
    out = []
    for i, t in enumerate(lat):
        lo, hi = max(0, i - 1), i + 1
        while (sum(r for _, r in yardsticks[lo:hi]) < YARDSTICK_MIN_REPS
               and (lo > 0 or hi < len(yardsticks))):
            lo, hi = max(0, lo - 1), min(len(yardsticks), hi + 1)
        secs = math.fsum(y for y, _ in yardsticks[lo:hi])
        out.append(t * YARDSTICK_S * sum(r for _, r in yardsticks[lo:hi]) / secs)
    return out


def judge(wl, refs, outcomes):
    """Check every outcome outside the timed span.

    Returns (ok flags, regressions).  An op is ok when it returned output
    that passes the invariants and agrees with its reference; where the
    recorded output was itself defective, passing the invariants is enough.
    A regression is an op that is not ok and does not reproduce its
    recorded defect (the same exception, or the same defective values).
    """
    import workloads

    oks, regressions = [], 0
    for inst, out, err in outcomes:
        ref = refs[inst.index]["ref"]
        if err is not None:
            ok, known = False, ref.get("error") == err
        else:
            same, valid = wl.check(inst, out, ref)
            ok = valid and (same or workloads.recorded_defect(ref))
            known = same
        oks.append(ok)
        regressions += not (ok or known)
    return oks, regressions


def nearest_rank(values, pct):
    ordered = sorted(values)
    return ordered[max(0, math.ceil(pct / 100.0 * len(ordered)) - 1)]


def env_stamp():
    import numpy

    model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "cpu_count": os.cpu_count(), "cpu_model": model,
            "threads": {k: os.environ.get(k) for k in PINNED}}
