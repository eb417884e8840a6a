#!/usr/bin/env python3
"""Compares two sets of benchmark results from the trajectory.

Every run of perfbench/run.py appends one line to
.bench_build/trajectory.jsonl, stamped with the host shape and the
source it measured. This script takes the runs of two sources and,
per workload and metric, reports each side's median and quartiles and
whether the change stays within the bound BENCHMARK.json fixes:

    python3 perfbench/compare.py BASE_SOURCE NEW_SOURCE [--trajectory FILE]

A source is a git sha or the src- digest run.py prints in its host
shape; a unique prefix is enough. Results taken on different host
shapes (cores, instances, reactors, movers, pinning, build type) are
not compared: the script refuses and exits 2.
"""

import argparse
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SHAPE_KEYS = ("nproc", "instances", "reactors", "movers", "handlers",
              "pinning", "build_type")


def load(path, source):
    rows = []
    with open(path) as f:
        for line in f:
            row = json.loads(line)
            if row["shape"]["source"].startswith(source):
                rows.append(row)
    return rows


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], statistics.median(values), q[2]


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("base")
    ap.add_argument("new")
    ap.add_argument("--trajectory",
                    default=os.path.join(ROOT, ".bench_build", "trajectory.jsonl"))
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    metrics = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}

    base, new = load(args.trajectory, args.base), load(args.trajectory, args.new)
    if not base or not new:
        sys.exit("compare: no runs for %s" % (args.base if not base else args.new))
    shapes = {tuple(r["shape"][k] for k in SHAPE_KEYS) for r in base + new}
    if len(shapes) != 1:
        print("compare: refusing to compare results from different host "
              "shapes:", file=sys.stderr)
        for s in sorted(shapes):
            print("  " + ", ".join("%s=%s" % kv for kv in zip(SHAPE_KEYS, s)),
                  file=sys.stderr)
        sys.exit(2)

    print("%-12s %-36s %10s %10s %8s  %s" % (
        "workload", "metric", "base p50", "new p50", "change", "verdict"))
    for workload in sorted({r["workload"] for r in base}):
        for trace in (0, 1):
            b = [r for r in base if r["workload"] == workload and r["trace"] == trace]
            n = [r for r in new if r["workload"] == workload and r["trace"] == trace]
            if not b or not n:
                continue
            for name in b[0]["metrics"]:
                bv = [r["metrics"][name]["value"] for r in b if name in r["metrics"]]
                nv = [r["metrics"][name]["value"] for r in n if name in r["metrics"]]
                if not bv or not nv:
                    continue
                bq, nq = quartiles(bv), quartiles(nv)
                change = (nq[1] - bq[1]) / bq[1] if bq[1] else 0.0
                m = metrics.get(name, {})
                verdict = ""
                if "bound" in m:
                    worse = change if m["better"] == "lower" else -change
                    spread = (bq[2] - bq[0]) / bq[1] if bq[1] else 0.0
                    if spread > m["bound"]:
                        verdict = "unresolved (base spread %.3f)" % spread
                    elif worse > m["bound"]:
                        verdict = "WORSE than bound %.2f" % m["bound"]
                    else:
                        verdict = "within bound"
                print("%-12s %-36s %10.4g %10.4g %+7.1f%%  %s" % (
                    workload, name, bq[1], nq[1], 100 * change, verdict))


if __name__ == "__main__":
    main()
