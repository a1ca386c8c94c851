#!/usr/bin/env python3
"""Whole-action benchmark for groupview: builds the benchmark package from
source and runs one workload.

    python3 perfbench/run.py --workload counter_long --seed 1 --seconds 12 --trace 0

Run it from the root of a checkout. The last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; with ``--trace 0`` the metrics are the end-to-end ones listed in
``BENCHMARK.json``, with ``--trace 1`` the per-layer ones, and the traced run
also writes a Chrome trace (Perfetto opens it) under ``perfbench/out/``.
``--size tiny`` runs a seconds-long version for the benchmark's own tests.

The exit code is 0 only when the build succeeded, every output check passed
and the printed metrics match ``BENCHMARK.json``.
"""

import argparse
import json
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BINARY = "groupview-perfbench"
# A hung program is stopped here; the binary itself stops starting actions
# long before this.
RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(code)


def parse_args(argv, workloads):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    p.add_argument("--size", default="full", choices=("full", "tiny"))
    return p.parse_args(argv)


def load_spec():
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read BENCHMARK.json: {e}")


def expected_metrics(spec, trace):
    """(name -> unit) the run must print."""
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def build():
    """Builds the benchmark in release mode; returns the binary's path."""
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    target = os.path.join(ROOT, target)  # no-op when already absolute
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    manifest = os.path.join(BENCH_DIR, "Cargo.toml")
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest]
    try:
        # Build output goes to stderr so stdout carries only the run's lines.
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, check=False)
    except OSError as e:
        fail(f"cannot run cargo: {e}")
    if done.returncode != 0:
        fail(f"build failed (exit {done.returncode})")
    return os.path.join(target, "release", BINARY)


def check_result(line, expected):
    """Validates the binary's result line; returns an error or None."""
    try:
        result = json.loads(line)
    except ValueError:
        return "last line is not JSON"
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return f"result keys are {sorted(result)}"
    printed = {name: m.get("unit") for name, m in result["metrics"].items()}
    if printed != expected:
        missing = sorted(set(expected) - set(printed))
        extra = sorted(set(printed) - set(expected))
        wrong = sorted(n for n in set(printed) & set(expected) if printed[n] != expected[n])
        return f"metrics differ from BENCHMARK.json: missing {missing}, extra {extra}, unit {wrong}"
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        return "attempted must be a whole number of at least 1"
    return None


def main(argv):
    spec = load_spec()
    whys = {w["name"]: w["why"] for w in spec["workloads"]}
    args = parse_args(argv, sorted(whys))
    expected = expected_metrics(spec, args.trace)
    binary = build()
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--size", args.size]
    if args.trace:
        trace_file = os.path.join(BENCH_DIR, "out", f"{args.workload}-seed{args.seed}.trace.json")
        cmd += ["--trace-file", trace_file]
    try:
        # `run` kills the child on timeout and waits for it to end.
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s", 3)
    lines = done.stdout.splitlines()
    if not lines:
        fail(f"run printed nothing (exit {done.returncode})", 3)
    print(json.dumps({"why": whys[args.workload]}))
    for line in lines[:-1]:
        print(line)
    error = check_result(lines[-1], expected)
    if error:
        fail(error, 3)
    print(lines[-1], flush=True)
    return done.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
