#!/usr/bin/env python3
"""Build the simulator from source in this checkout and run one benchmark.

    python3 perfbench/run.py --workload steady|paper_suite|fleet \
        --seed N --seconds S --trace 0|1 [--smoke]

Run from the root of a checkout. The program is built with dune into
.bench_build/ and every file a run writes stays under that directory.
The last line of standard output is the result object; see README.md
beside this file for the workloads and metrics.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time

BUILD_DIR = ".bench_build"
SCRATCH = os.path.join(BUILD_DIR, "perfbench")
EXE = os.path.join(BUILD_DIR, "dune", "default", "perfbench", "bench.exe")
# a hung run is killed after this long (the build is timed separately)
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def git_rev():
    if not os.path.isdir(".git"):
        return "none"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10)
        return out.stdout.strip() or "none"
    except (OSError, subprocess.TimeoutExpired):
        return "none"


def source_digest():
    """sha256 over the sources the program is built from, so a result
    names its code even in a checkout that is not a git repository"""
    h = hashlib.sha256()
    for top in ("lib", "perfbench"):
        for root, dirs, files in os.walk(top):
            dirs.sort()
            for f in sorted(files):
                if f.endswith((".ml", ".mli")) or f == "dune":
                    path = os.path.join(root, f)
                    h.update(path.encode())
                    with open(path, "rb") as fh:
                        h.update(fh.read())
    return h.hexdigest()[:16]


def build(env):
    cmd = ["dune", "build", "--root", ".", "--build-dir",
           os.path.abspath(os.path.join(BUILD_DIR, "dune")),
           "./perfbench/bench.exe"]
    try:
        r = subprocess.run(cmd, env=env, stdout=sys.stderr, stderr=sys.stderr,
                           timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"build failed: {e}")
    if r.returncode != 0 or not os.path.isfile(EXE):
        fail("build failed")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True,
                    choices=["steady", "paper_suite", "fleet"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], required=True)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny sizes, for the self-test")
    args = ap.parse_args()
    if args.seconds <= 0:
        fail("--seconds must be positive")
    # the simulator's sources must be here: the benchmark builds them
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        fail("run from the root of a checkout of the simulator")

    os.makedirs(SCRATCH, exist_ok=True)
    env = dict(os.environ)
    env["DUNE_CACHE"] = "disabled"  # keep build outputs inside the checkout
    env["OCAML_RUNTIME_EVENTS_DIR"] = SCRATCH
    env.pop("OCAML_RUNTIME_EVENTS_START", None)
    env["PERFBENCH_GIT_REV"] = git_rev()
    env["PERFBENCH_SOURCE_DIGEST"] = source_digest()
    build(env)

    cmd = [EXE, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.smoke:
        cmd.append("--smoke")
    start = time.monotonic()
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    lines = [l for l in out.splitlines() if l.strip()]
    if proc.returncode != 0 or not lines:
        fail(f"benchmark program exited with code {proc.returncode}")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail("benchmark program printed no result")
    if set(result) != RESULT_KEYS:
        fail(f"result has keys {sorted(result)}")
    for l in lines[:-1]:
        print(l)
    print(f"perfbench: run took {time.monotonic() - start:.1f} s",
          file=sys.stderr)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
