#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the repository root.  It configures and builds the benchmark
program (perfbench/CMakeLists.txt, which compiles the library from src/)
under $CARGO_TARGET_DIR (default .bench_build), then runs one workload with
a pinned environment: BST_THREADS=1 and every other BST_* variable removed.
The last line of standard output is the result object; the line before it
is the provenance record.  A traced run (--trace 1) also runs the parallel
factorization probe with BST_THREADS set to the core count and merges
core.factor.parallel_speedup into the result.

Extra flags --tiny and --corrupt-one (shrunken sizes; one damaged answer)
are passed through for perfbench/test_perfbench.py.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, "perfbench")


def build(out):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    # The compiler's temporary files stay inside the build tree too.
    tmp = os.path.join(out, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    steps = []
    # Written only by a configure run that completed.
    if not os.path.exists(os.path.join(out, "CMakeFiles", "cmake.check_cache")):
        steps.append(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "--target", "bst_perfbench", "-j", jobs])
    for cmd in steps:
        try:
            r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, env=env,
                               timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as e:
            fail(f"build step failed: {e}")
        if r.returncode != 0:
            fail(f"build step failed ({r.returncode}): {' '.join(cmd)}")
    return os.path.join(out, "bst_perfbench")


def git_describe():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        r = subprocess.run(["git", "-C", ROOT, "describe", "--always", "--dirty", "--tags"],
                           capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return r.stdout.strip() if r.returncode == 0 and r.stdout.strip() else "unknown"


def pinned_env(threads):
    env = {k: v for k, v in os.environ.items() if not k.startswith("BST_")}
    cleared = sorted(k for k in os.environ if k.startswith("BST_"))
    env["BST_THREADS"] = str(threads)
    return env, cleared


def run(cmd, env):
    """Runs bst_perfbench; returns (lines before the result, result dict)."""
    try:
        r = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"run failed: {e}")
    sys.stderr.write(r.stderr)
    lines = r.stdout.rstrip("\n").splitlines()
    if r.returncode != 0 or not lines:
        fail(f"bst_perfbench exited with {r.returncode}")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail("bst_perfbench printed no result")
    return lines[:-1], result


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    ap.add_argument("--tiny", action="store_true")
    ap.add_argument("--corrupt-one", action="store_true")
    args = ap.parse_args()
    if args.seed < 0:
        fail("--seed must be non-negative")

    out = build_dir()
    binary = build(out)
    env, cleared = pinned_env(1)
    common = [f"--seed={args.seed}"] + (["--tiny"] if args.tiny else [])
    cmd = [binary, f"--workload={args.workload}", f"--seconds={args.seconds!r}",
           f"--trace={args.trace}", f"--git-describe={git_describe()}",
           f"--cleared-env={','.join(cleared) or 'none'}"] + common
    if args.corrupt_one:
        cmd.append("--corrupt-one")
    if args.trace == "1":
        traces = os.path.join(out, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd.append(f"--trace-out={os.path.join(traces, f'{args.workload}-seed{args.seed}.json')}")
    head, result = run(cmd, env)

    if args.trace == "1":
        penv, _ = pinned_env(os.cpu_count() or 1)
        _, probe = run([binary, "--probe=parallel_speedup"] + common, penv)
        result["metrics"].update(probe["metrics"])
        result["attempted"] += probe["attempted"]
        result["failed"] += probe["failed"]
        result["correct"] = result["correct"] and probe["correct"]

    for line in head:
        print(line)
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
