#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

Usage, from the root of the repository:

    python3 dzbench/run.py --workload fmt_pipeline|variant_serve|sim_cluster \
        --seed N --seconds S --trace 0|1

Configures and builds dzbench/ (which builds the program from the sources in
src/) into $CARGO_TARGET_DIR, or .bench_build when unset, runs the benchmark's
own tests, checks BENCHMARK.json against the metrics the benchmark declares,
then runs the workload. The last line of stdout is the benchmark's JSON result.
Build output goes to stderr. Exits nonzero when any of these steps fails.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"dzbench/run.py: {msg}", file=sys.stderr)
    sys.exit(1)


def build(root, build_dir):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", str(root / "dzbench"), "-B", str(build_dir), "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", str(build_dir), "-j", jobs, "--target", "dzbench", "dzbench_selftest"],
    ]
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(cmd))


def check_declarations(root, binary):
    """BENCHMARK.json must declare exactly the metrics the benchmark measures."""
    try:
        spec = json.loads((root / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as e:
        fail(f"cannot read BENCHMARK.json: {e}")
    out = subprocess.run([str(binary), "--list-metrics"], capture_output=True, text=True,
                         check=False)
    if out.returncode != 0:
        fail("dzbench --list-metrics failed")
    measured = {"end_to_end": set(), "per_layer": set()}
    for line in out.stdout.splitlines():
        m = json.loads(line)
        measured[m["kind"]].add((m["name"], m["unit"], m["better"]))
    for kind, got in measured.items():
        declared = {(m["name"], m["unit"], m["better"]) for m in spec.get(kind, [])}
        if declared != got:
            fail(f"BENCHMARK.json {kind} differs from the benchmark: "
                 f"only declared {sorted(declared - got)}, only measured {sorted(got - declared)}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    root = Path(__file__).resolve().parent.parent
    build_dir = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not build_dir.is_absolute():
        build_dir = root / build_dir
    build(root, build_dir)

    selftest = build_dir / "dzbench_selftest"
    if subprocess.run([str(selftest)], stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
        fail("the benchmark's own tests failed")
    binary = build_dir / "dzbench"
    check_declarations(root, binary)

    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    try:
        run = subprocess.run(cmd, cwd=root, timeout=RUN_TIMEOUT_S, stdout=subprocess.PIPE,
                             text=True, check=False)
    except subprocess.TimeoutExpired:
        fail(f"workload did not finish within {RUN_TIMEOUT_S} s")
    sys.stdout.write(run.stdout)
    sys.exit(run.returncode)


if __name__ == "__main__":
    main()
