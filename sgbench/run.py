#!/usr/bin/env python3
"""Builds and runs the repository's benchmark (see sgbench/README.md).

    python3 sgbench/run.py --workload swifi-campaign --seed 1 --seconds 20 --trace 0

Run from the repository root. The first run configures and builds the
benchmark package into .bench_build/sgbench (Release); later runs only
rebuild what changed. With --trace 0 the program is also started in
--setup-only mode a few more times and setup_s is the median over all of
them. The metric names printed are checked against BENCHMARK.json; the last
stdout line is the result object.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

WORKLOADS = ("swifi-campaign", "explore-matrix", "web-open-loop")
SETUP_REPEATS = 4
BUILD_TIMEOUT_S = 850
RUN_DEADLINE_S = 175


def fail(message, code=1):
    print(f"sgbench: {message}", file=sys.stderr)
    sys.exit(code)


def build(root, build_dir):
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    steps = []
    if not (build_dir / "CMakeCache.txt").exists():
        steps.append(["cmake", *generator, "-S", str(root / "sgbench"), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", str(build_dir), "--target", "sgbench", "-j", jobs])
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    for step in steps:
        try:
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=max(1, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            fail("build timed out")
        if done.returncode != 0:
            fail("build failed: " + " ".join(step), 3)


def revision(root):
    """The checked-out commit, read from .git when there is one."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run(command, deadline):
    try:
        return subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=max(1, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        fail("benchmark run timed out")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1", 2)

    root = Path(__file__).resolve().parent.parent
    if not (root / "src" / "kernel" / "kernel.cpp").is_file():
        fail(f"library sources not found under {root / 'src'}", 2)
    try:
        spec = json.loads((root / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as error:
        fail(f"cannot read BENCHMARK.json: {error}", 2)
    expected = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]

    build_dir = root / ".bench_build" / "sgbench"
    build(root, build_dir)
    binary = build_dir / "sgbench"
    deadline = time.monotonic() + RUN_DEADLINE_S

    base = [str(binary), "--workload", args.workload, "--seed", str(args.seed)]
    setups = []
    if args.trace == 0:
        for _ in range(SETUP_REPEATS):
            done = run(base + ["--setup-only"], deadline)
            lines = done.stdout.split()
            if done.returncode != 0 or len(lines) != 2 or lines[0] != "SETUP":
                fail("setup-only run failed")
            setups.append(float(lines[1]))

    command = base + ["--seconds", str(args.seconds), "--trace", str(args.trace),
                      "--revision", revision(root)]
    if args.trace == 1:
        spans_dir = root / ".bench_build" / "spans"
        spans_dir.mkdir(parents=True, exist_ok=True)
        command += ["--spans", str(spans_dir / f"{args.workload}-seed{args.seed}.json")]
    done = run(command, deadline)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        fail(f"benchmark exited with code {done.returncode}")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail("benchmark printed no result object")
    for line in lines[:-1]:
        print(line)

    metrics = result["metrics"]
    if sorted(metrics) != sorted(expected):
        missing = sorted(set(expected) - set(metrics))
        extra = sorted(set(metrics) - set(expected))
        fail(f"metrics differ from BENCHMARK.json: missing {missing}, extra {extra}")
    if args.trace == 0:
        setups.append(metrics["setup_s"]["value"])
        metrics["setup_s"]["value"] = statistics.median(setups)
    result["metrics"] = {name: metrics[name] for name in expected}
    print(json.dumps({key: result[key] for key in ("correct", "attempted", "failed", "metrics")}))


if __name__ == "__main__":
    main()
