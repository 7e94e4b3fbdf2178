#!/usr/bin/env python3
"""Builds the verdict benchmark from source and runs one measurement.

Run from the repository root:

    python3 verdictbench/run.py --workload ft-wan --seed 1 --seconds 55

The first run configures and builds `.bench_build/verdictbench` (Release);
later runs only re-check the build. Build output goes to stderr, so the
last line of stdout is the benchmark's JSON result. With `--trace 1` the
Chrome trace-event file is written to
`.bench_build/traces/<workload>-seed<seed>.json`. Any other arguments
(`--passes N`, `--verdict-log PATH`, `--list-inputs`, `--regen-answers`)
are passed to the driver unchanged.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "verdictbench")
BINARY = os.path.join(BUILD, "verdict_bench")
# A measurement stops its timed loop by itself well before this.
RUN_TIMEOUT_S = 175


def build():
    """Configures (once) and builds the driver; exits 1 on failure."""
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            sys.exit("verdictbench: configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", BUILD, "--target", "verdict_bench", "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        sys.exit("verdictbench: build failed")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["ft-wan", "ft-fat", "corpus-mix"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=55)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args, rest = ap.parse_known_args()

    build()
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--answers", os.path.join(HERE, "answers")]
    if args.trace:
        traces = os.path.join(ROOT, ".bench_build", "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-file", os.path.join(
            traces, f"{args.workload}-seed{args.seed}.json")]
    cmd += rest
    # The engine reads these knobs from the environment; a measurement
    # must run with the defaults a user gets.
    env = {k: v for k, v in os.environ.items() if not k.startswith("NV_")}
    try:
        timeout = None if "--regen-answers" in rest else RUN_TIMEOUT_S
        proc = subprocess.run(cmd, cwd=ROOT, env=env, timeout=timeout)
    except subprocess.TimeoutExpired:
        sys.exit("verdictbench: run timed out")
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
