#!/usr/bin/env python3
"""Runs one workload of WiClean's end-to-end benchmark.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the repository root. The script builds the benchmark package
(perfbench/Cargo.toml, which builds the repository's crates from source
into $CARGO_TARGET_DIR, default .bench_build), generates the workload's
inputs from the seed into .perfbench_runs/, runs the measured process on
those files, relays its output (the last line is the JSON result), and
removes the inputs again. Traced runs (--trace 1) keep their spans in
.perfbench_runs/spans-<workload>-<seed>.tsv. See perfbench/README.md.
"""

import argparse
import os
import shutil
import subprocess
import sys

WORKLOADS = ["batch-soccer", "stream-soccer", "serve-soccer", "disk-soccer"]
BUILD_TIMEOUT_S = 870
GEN_TIMEOUT_S = 120
RUN_TIMEOUT_S = 170


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")

    here = os.path.dirname(os.path.abspath(__file__))
    root = os.getcwd()
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(here, "Cargo.toml")],
        env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    exe = os.path.join(target, "release", "wiclean-perfbench")

    runs = os.path.join(root, ".perfbench_runs")
    work = os.path.join(runs, f"{args.workload}-{args.seed}-{os.getpid()}")
    common = ["--workload", args.workload, "--seed", str(args.seed), "--dir", work]
    try:
        gen = subprocess.run([exe, "gen", *common], stdout=sys.stderr,
                             timeout=GEN_TIMEOUT_S)
        if gen.returncode != 0:
            print("perfbench: input generation failed", file=sys.stderr)
            return 2
        cmd = [exe, "run", *common, "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        if args.trace:
            spans = os.path.join(runs, f"spans-{args.workload}-{args.seed}.tsv")
            cmd += ["--spans", spans]
        run = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
        sys.stdout.write(run.stdout)
        sys.stdout.flush()
        return run.returncode
    except subprocess.TimeoutExpired as e:
        print(f"perfbench: timed out: {e}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
