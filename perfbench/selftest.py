#!/usr/bin/env python3
"""The benchmark's own test.

    python3 perfbench/selftest.py

Runs every workload briefly (optimal-direct too, which BENCHMARK.json does
not list), untraced and traced, through run.py and checks
that each run passes its correctness checks and prints exactly the metrics
BENCHMARK.json names, with their units (run.py fails a run otherwise).
Then runs doctored inputs and checks that the correctness checks fire:
a corrupted final configuration on each trial workload, and a mutated
cached response on serve-mix, must each make the run exit non-zero with
"correct": false.  Finally it checks that plan.json predicts a layer and
workload for every per-layer metric and defines every end-to-end one.
Takes about 30 s once the binary is built.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TRIAL_WORKLOADS = ["optimal-direct", "baseline-batched", "sublinear-trees"]
WORKLOADS = TRIAL_WORKLOADS + ["serve-mix"]


def run(workload, trace, doctor=None):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", "1", "--trace", str(trace)]
    if doctor:
        cmd += ["--doctor", doctor]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True)
    if proc.returncode != 0 and not doctor:
        sys.stderr.write(proc.stdout + proc.stderr)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return proc.returncode, result


def main():
    failures = []

    def expect(ok, what):
        print(("ok   " if ok else "FAIL ") + what, flush=True)
        if not ok:
            failures.append(what)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    for workload in WORKLOADS:
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            status, result = run(workload, trace)
            expect(status == 0 and result is not None and result["correct"]
                   and result["failed"] == 0 and result["attempted"] >= 1,
                   f"{workload} --trace {trace} passes its checks")
            if result is not None:
                got = {n: m["unit"] for n, m in result["metrics"].items()}
                want = {m["name"]: m["unit"] for m in spec[kind]}
                expect(got == want,
                       f"{workload} --trace {trace} prints every {kind} metric "
                       "with its unit")

    for workload in TRIAL_WORKLOADS:
        status, result = run(workload, 0, doctor="config")
        expect(status != 0 and result is not None and not result["correct"]
               and result["failed"] >= 1,
               f"{workload}: a corrupted final configuration fails the run")
    status, result = run("serve-mix", 0, doctor="cache")
    expect(status != 0 and result is not None and not result["correct"]
           and result["failed"] >= 1,
           "serve-mix: a mutated cached response fails the run")

    with open(os.path.join(HERE, "plan.json")) as f:
        plan = json.load(f)
    names = {w["name"] for w in spec["workloads"]}
    expect(names == {w["name"] for w in plan["workloads"]
                     if w.get("in_benchmark", True)},
           "plan.json describes every workload")
    expect(all(w.get("why_not") for w in plan["workloads"]
               if not w.get("in_benchmark", True)),
           "plan.json gives a reason for every workload BENCHMARK.json leaves out")
    defined = {d["metric"] for d in plan["end_to_end"]}
    expect(defined == {m["name"] for m in spec["end_to_end"]},
           "plan.json defines every end-to-end metric")
    predicted = {p["metric"] for p in plan["predictions"]}
    expect(predicted == {m["name"] for m in spec["per_layer"]},
           "plan.json predicts where every per-layer metric moves")

    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
