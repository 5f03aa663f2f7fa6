#!/usr/bin/env python3
"""Builds rodin_bench from the checkout and runs one workload.

    python3 rodin_bench/run.py --workload fig3 --seed 1 --seconds 50 --trace 0

Run it from the root of a checkout. The build goes to $CARGO_TARGET_DIR
when that is set, else to .bench_build/, both relative to the working
directory. The build is a Release build of rodin_bench/CMakeLists.txt,
which compiles the rodin library from src/. Build output goes to standard
error; standard output is the benchmark's own, whose last line is the
result object. Exits non-zero when the build fails, a set-up check
refuses, an answer is wrong, or the result does not carry exactly the
metrics BENCHMARK.json declares for the mode.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("fig3", "adhoc_plans")
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(2)


def build(build_dir):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("configuring the build failed")
    step = ["cmake", "--build", build_dir, "--target", "rodin_bench",
            "-j", jobs]
    if subprocess.run(step, stdout=sys.stderr).returncode != 0:
        fail("building rodin_bench failed")
    return os.path.join(build_dir, "rodin_bench")


def git_sha():
    # Only the checkout itself: git must not find a repository above it.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10,
                             env=env)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"no rodin sources under {ROOT}: run from a full checkout")
    expected = expected_metrics(args.trace)
    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR")
                                or ".bench_build")
    binary = build(build_dir)
    trace_dir = os.path.join(build_dir, "traces")
    os.makedirs(trace_dir, exist_ok=True)

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--trace-dir", trace_dir, "--git-sha", git_sha()]
    # The product as shipped: no RODIN_* switch reaches the benchmark.
    env = {k: v for k, v in os.environ.items() if not k.startswith("RODIN_")}
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"rodin_bench did not finish within {RUN_TIMEOUT_S} s")
    lines = proc.stdout.splitlines()
    if not lines or not lines[-1].startswith("{"):
        sys.stdout.write(proc.stdout)
        fail(f"rodin_bench exited {proc.returncode} without a result")
    result = json.loads(lines[-1])
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != expected:
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        fail("metrics differ from BENCHMARK.json: missing "
             f"{sorted(set(expected) - set(got))}, unexpected "
             f"{sorted(set(got) - set(expected))}, units "
             f"{sorted(k for k in got if k in expected and got[k] != expected[k])}")
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    if proc.returncode != 0 or not result["correct"]:
        sys.exit(1)


if __name__ == "__main__":
    main()
