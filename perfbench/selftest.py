#!/usr/bin/env python3
"""Smoke-size self-test of the benchmark.

    python3 perfbench/selftest.py

Run from the root of a checkout. Runs every workload untraced and traced
at tiny sizes (--smoke) and checks that each run passes its output
checks and emits exactly the metrics BENCHMARK.json names, with their
units. Then checks that the benchmark fails, printing no result, in a
directory that holds only BENCHMARK.json and perfbench/.
"""

import json
import os
import shutil
import subprocess
import sys

SPEC = json.load(open("BENCHMARK.json"))
BARE = os.path.join(".bench_build", "selftest-bare")


def run(workload, trace, cwd="."):
    cmd = ["python3", "perfbench/run.py", "--workload", workload, "--seed",
           "7", "--seconds", "1", "--trace", str(trace), "--smoke"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=400)


def check_run(workload, trace):
    r = run(workload, trace)
    if r.returncode != 0:
        return [f"exit code {r.returncode}: {r.stderr.strip()[-400:]}"]
    result = json.loads(r.stdout.strip().splitlines()[-1])
    errors = []
    if not result["correct"] or result["failed"] != 0:
        errors.append(f"outputs failed their checks: {r.stderr.strip()[-400:]}")
    want = {m["name"]: m["unit"] for m in
            SPEC["per_layer" if trace else "end_to_end"]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    for name in sorted(set(want) | set(got)):
        if name not in got:
            errors.append(f"missing metric {name}")
        elif name not in want:
            errors.append(f"metric {name} is not in BENCHMARK.json")
        elif got[name] != want[name]:
            errors.append(f"{name}: unit {got[name]}, expected {want[name]}")
    return errors


def check_bare():
    shutil.rmtree(BARE, ignore_errors=True)
    os.makedirs(BARE)
    shutil.copy("BENCHMARK.json", BARE)
    shutil.copytree("perfbench", os.path.join(BARE, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    try:
        r = run("steady", 0, cwd=BARE)
    finally:
        shutil.rmtree(BARE, ignore_errors=True)
    if r.returncode == 0 or r.stdout.strip():
        return ["ran without the simulator's sources"]
    return []


def main():
    failures = 0
    for w in SPEC["workloads"]:
        for trace in (0, 1):
            errors = check_run(w["name"], trace)
            print(f"{w['name']:12} trace {trace}: "
                  f"{'ok' if not errors else 'FAIL'}")
            for e in errors:
                print(f"    {e}")
            failures += bool(errors)
    errors = check_bare()
    print(f"{'bare dir':12}        : {'ok' if not errors else 'FAIL'}")
    for e in errors:
        print(f"    {e}")
    failures += bool(errors)
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
