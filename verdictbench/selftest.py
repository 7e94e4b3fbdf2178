#!/usr/bin/env python3
"""Determinism self-test of the verdict benchmark.

Run from the repository root (builds the driver first, like run.py):

    python3 verdictbench/selftest.py [--workloads ft-wan,ft-fat,corpus-mix]

Checks, per workload:
  1. the input sequence is a pure function of the seed: two listings for
     one seed are identical, and another seed walks the same pool in
     another order;
  2. two traced runs of two passes report identical per-layer counts and
     identical per-verdict counters;
  3. every verdict builds its own contexts: within a run, each input's
     counters (op-cache and unique-table lookups, peak nodes, pops, ...)
     are the same in the first and the second pass. State carried over
     from an earlier verdict would change them.
Exits 0 when every check passes.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = [sys.executable, os.path.join(HERE, "run.py")]

# Per-layer metrics that are counts, hence must repeat exactly. Unique-table
# probe counts are left out: leaf slots hash payload addresses, so probe
# lengths depend on where the allocator put the values.
COUNT_METRICS = [
    "sim.pops", "sim.trans_calls", "sim.merge_calls",
    "bdd.op_cache_lookups", "bdd.op_cache_hit_ratio", "bdd.unique_lookups",
    "bdd.peak_nodes", "bdd.memory_mb", "bdd.gc_collections",
    "analysis.scenarios", "analysis.violations",
]
ADDRESS_DEPENDENT_COLUMNS = {"unique_probes"}


def run(args):
    out = subprocess.run(RUN + args, cwd=ROOT, stdout=subprocess.PIPE,
                         text=True, check=True).stdout
    return out


def traced_run(workload, seed, log):
    out = run(["--workload", workload, "--seed", str(seed), "--trace", "1",
               "--passes", "2", "--verdict-log", log])
    result = json.loads(out.strip().splitlines()[-1])
    with open(log) as f:
        rows = [line.rstrip("\n").split("\t") for line in f]
    keep = [i for i, name in enumerate(rows[0])
            if name not in ADDRESS_DEPENDENT_COLUMNS]
    return result, [[row[i] for i in keep] for row in rows[1:]]


def check(workload, logs):
    failures = []
    a = run(["--workload", workload, "--seed", "7", "--list-inputs"])
    b = run(["--workload", workload, "--seed", "7", "--list-inputs"])
    c = run(["--workload", workload, "--seed", "8", "--list-inputs"])
    if a != b:
        failures.append("seed 7 listed two different input sequences")
    if a == c or sorted(a.splitlines()) != sorted(c.splitlines()):
        failures.append("seed 8 does not reorder seed 7's pool")

    r1, rows1 = traced_run(workload, 7, os.path.join(logs, workload + "-1.tsv"))
    r2, rows2 = traced_run(workload, 7, os.path.join(logs, workload + "-2.tsv"))
    for r in (r1, r2):
        if not r["correct"] or r["failed"]:
            failures.append(f"traced run not correct: {r['failed']} failed")
    for m in COUNT_METRICS:
        v1, v2 = r1["metrics"][m]["value"], r2["metrics"][m]["value"]
        if v1 != v2:
            failures.append(f"{m}: {v1} != {v2} across two traced runs")
    if rows1 != rows2:
        failures.append("per-verdict counters differ across two runs")

    half = len(rows1) // 2
    first, second = rows1[:half], rows1[half:]
    for x, y in zip(first, second):
        if x != y:
            failures.append(f"input {x[0]}: counters {x} in pass 1 but "
                            f"{y} in pass 2")
            break
    return failures


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default="ft-wan,ft-fat,corpus-mix")
    args = ap.parse_args()
    logs = os.path.join(ROOT, ".bench_build", "selftest")
    os.makedirs(logs, exist_ok=True)
    bad = False
    for w in args.workloads.split(","):
        failures = check(w, logs)
        print(f"{w}: {'ok' if not failures else 'FAILED'}")
        for f in failures:
            print(f"  {f}")
        bad |= bool(failures)
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()
