#!/usr/bin/env python3
"""Build and run the scheduler benchmark.

One workload, as the benchmark contract runs it (from the repository root):

    python3 perfbench/run.py --workload steady_small --seed 1 --seconds 10 --trace 0

The benchmark crate is built from source first (release profile, offline)
into $CARGO_TARGET_DIR, or `.bench_build` when that is unset. The last
line of standard output is the run's JSON result; the exit code is the
run's own (1 when a correctness check failed).

Every workload, at the given seed and at the held-out seed, with a table
of every end-to-end metric by name and unit:

    python3 perfbench/run.py --all [--seed 1] [--seconds 10] [--trace 1]
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# A seed no tuning run uses: a claimed change must also hold here.
HELDOUT_SEED = 9001

# Per-run limit; a run that needs longer is a failure, not a result.
RUN_TIMEOUT_S = 170


def build():
    """Builds the benchmark binary and returns its path."""
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    target = os.path.abspath(target)
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    manifest = os.path.join(HERE, "Cargo.toml")
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest]
    if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
        sys.exit("error: building the benchmark failed")
    return os.path.join(target, "release", "perfbench")


def run_one(binary, workload, seed, seconds, trace, echo=True):
    """Runs one workload; returns (exit code, parsed result or None)."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"error: {workload} ran past {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1, None
    lines = proc.stdout.strip().splitlines()
    if echo:
        print("\n".join(lines))
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        return proc.returncode or 1, None
    return proc.returncode, result


def run_all(binary, seed, seconds, trace):
    """Every listed workload at `seed` and the held-out seed."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    worst = 0
    for workload in [w["name"] for w in spec["workloads"]]:
        for s in dict.fromkeys([seed, HELDOUT_SEED]):
            code, result = run_one(binary, workload, s, seconds, trace, echo=False)
            ok = code == 0 and result is not None and result["correct"]
            worst = max(worst, 0 if ok else 1)
            print(f"{workload} seed={s}: {'ok' if ok else 'FAILED'}")
            for name, m in (result or {}).get("metrics", {}).items():
                label = "  (modeled, not measured)" if name.startswith("modeled") else ""
                print(f"  {name:34s} {m['value']:>16.6g} {m['unit']}{label}")
    return worst


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=10)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--all", action="store_true", help="run every workload at two seeds")
    args = p.parse_args()
    if not args.all and not args.workload:
        p.error("--workload or --all is required")
    binary = build()
    if args.all:
        sys.exit(run_all(binary, args.seed, args.seconds, args.trace))
    code, result = run_one(binary, args.workload, args.seed, args.seconds, args.trace)
    if result is None:
        sys.exit(code or 1)
    sys.exit(code)


if __name__ == "__main__":
    main()
