#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

One workload, as BENCHMARK.json's command runs it:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Every workload BENCHMARK.json lists, one fresh process each, with a table
of the metrics:

    python3 perfbench/run.py [--seed <n>] [--seconds <s>] [--trace <0|1>]

optimal-direct runs only when named with --workload: it is too sensitive
to other tenants of a shared host to hold a bound (see README.md).

The benchmark binary is built from this checkout's sources with CMake into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench); the first run
builds it.  The last line of a one-workload run is the binary's JSON
result; its metric names and units are checked against BENCHMARK.json.
Exit status is non-zero when the build fails, a correctness check fails,
or the metrics do not match BENCHMARK.json.
"""

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["optimal-direct", "baseline-batched", "sublinear-trees", "serve-mix"]
# A run must end within 180 s; the binary itself stops measuring after
# --seconds, so this only guards against a hang.
RUN_TIMEOUT_S = 170


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build():
    """Configures (once) and builds the benchmark binary; returns its path."""
    out = build_dir()
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", out, "--target", "perfbench", "-j", jobs],
                   stdout=sys.stderr, check=True)
    return os.path.join(out, "perfbench")


def benchmark_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def expected_metrics(trace):
    spec = benchmark_spec()
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def run_one(binary, workload, seed, seconds, trace, doctor=None):
    """Runs one workload; returns (exit status, stdout lines, result or None)."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if trace:
        spans = os.path.join(build_dir(), "spans")
        os.makedirs(spans, exist_ok=True)
        cmd += ["--spans", os.path.join(spans, f"{workload}-seed{seed}.jsonl")]
    if doctor:
        cmd += ["--doctor", doctor]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: {workload} did not finish within {RUN_TIMEOUT_S} s",
              file=sys.stderr)
        return 124, [], None
    lines = proc.stdout.splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
    return proc.returncode, lines, result


def metric_problems(result, trace):
    expected = expected_metrics(trace)
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    problems = []
    for name in sorted(set(expected) | set(got)):
        if name not in got:
            problems.append(f"metric {name} missing")
        elif name not in expected:
            problems.append(f"metric {name} is not in BENCHMARK.json")
        elif got[name] != expected[name]:
            problems.append(f"metric {name} has unit {got[name]}, "
                            f"BENCHMARK.json says {expected[name]}")
    return problems


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--doctor", choices=["config", "cache"],
                        help="corrupt a checked output (for the self-test)")
    args = parser.parse_args()

    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 3
    spec = benchmark_spec()
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]

    if args.workload:
        status, lines, result = run_one(binary, args.workload, args.seed,
                                        seconds, args.trace, args.doctor)
        for line in lines:
            print(line)
        if status != 0 or result is None:
            return status or 1
        problems = metric_problems(result, args.trace)
        for p in problems:
            print(f"perfbench: {p}", file=sys.stderr)
        return 1 if problems else 0

    failed = False
    rows = {}
    workloads = [w["name"] for w in spec["workloads"]]
    for workload in workloads:
        start = time.monotonic()
        status, lines, result = run_one(binary, workload, args.seed, seconds,
                                        args.trace, args.doctor)
        print("\n".join(lines[:-1]))
        print(f"  ({time.monotonic() - start:.1f} s, exit {status})")
        if status != 0 or result is None or metric_problems(result, args.trace):
            failed = True
        if result is not None:
            rows[workload] = result
    names = sorted(expected_metrics(args.trace).items())
    print()
    print(f"{'metric':34} {'unit':6} " +
          " ".join(f"{w:>16}" for w in workloads))
    for name, unit in names:
        cells = []
        for w in workloads:
            m = rows.get(w, {}).get("metrics", {}).get(name)
            cells.append(f"{m['value']:16.6g}" if m else f"{'-':>16}")
        print(f"{name:34} {unit:6} " + " ".join(cells))
    for w in workloads:
        r = rows.get(w)
        if r is not None:
            share = r["failed"] / r["attempted"]
            print(f"{w}: correct={r['correct']} failed_share={share:g} "
                  f"({r['failed']} of {r['attempted']})")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
