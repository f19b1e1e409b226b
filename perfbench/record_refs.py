#!/usr/bin/env python3
"""Record refs/<workload>.json from the library as it stands.

For every pool instance this stores the op's output (or the failure it
reported), a digest of the generated input, and the op's cost in
milliseconds (median of three runs), which the run uses to pair pool
neighbours of similar cost.  Re-record only when the library's intended
outputs change:

    python3 perfbench/record_refs.py [workload ...]
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import tempfile
import time

import harness
import workloads


def record(name):
    wl = workloads.WORKLOADS[name]
    wl.bk = workloads.import_besovk()
    harness.BUILD.mkdir(exist_ok=True)
    items = []
    with tempfile.TemporaryDirectory(dir=harness.BUILD) as workdir:
        for i in range(wl.pool_size):
            inst = wl.item(i)
            wl.build(inst, workdir)
            costs = []
            for _ in range(3):
                outcomes, lat = harness.run_ops(wl, [inst])
                costs.append(lat[0])
            (_, out, err), = outcomes
            if err:
                ref = {"error": err}
            else:
                ref = wl.reference(inst, out)
                if not wl.check(inst, out, ref)[1]:
                    ref["invalid"] = True
            items.append({"digest": inst.digest, "cost_ms": round(
                1000 * statistics.median(costs), 3), "ref": ref})
            if workloads.recorded_defect(ref):
                print(f"{name}[{i}]: {err or 'fails its invariants'}", file=sys.stderr)
    path = workloads.REFS / f"{name}.json"
    path.parent.mkdir(exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"workload": name, "items": items}, fh)
        fh.write("\n")
    errors = sum("error" in it["ref"] for it in items)
    invalid = sum(it["ref"].get("invalid", False) for it in items)
    print(f"{name}: {len(items)} items, {errors} raised, {invalid} fail invariants -> {path}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("workload", nargs="*", help="default: every workload")
    names = ap.parse_args().workload or list(workloads.WORKLOADS)
    unknown = set(names) - set(workloads.WORKLOADS)
    if unknown:
        ap.error(f"unknown workloads: {', '.join(sorted(unknown))}")
    for name in names:
        t0 = time.perf_counter()
        record(name)
        print(f"  {time.perf_counter() - t0:.1f} s")


if __name__ == "__main__":
    main()
