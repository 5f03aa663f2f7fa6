#!/usr/bin/env python3
"""Steadiness and parent/change comparison for rodin_bench.

Steadiness: run one workload N times, each with another seed, and print the
median, quartiles and spread (interquartile distance over the median) of
every metric, flagging a spread above the metric's bound in BENCHMARK.json
(and, as a warning, above a third of it):

    python3 rodin_bench/steady.py --workload fig3 --runs 10

Pairs: run a parent checkout and a change checkout N times each, in
alternating order, and print each side's median and quartiles, how often
the change won, and whether its median is worse than the parent's by more
than the bound:

    python3 rodin_bench/steady.py --workload fig3 --runs 10 \\
        --parent ../rodin-parent --change .

Both modes accept --trace 1 to compare the per-layer metrics (which carry no
bound). Each run is `python3 rodin_bench/run.py` from the checkout's root,
with the run length from BENCHMARK.json unless --seconds is given.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def load_spec(root):
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        spec = json.load(f)
    metrics = {}
    for m in spec["end_to_end"]:
        metrics[m["name"]] = m
    for m in spec["per_layer"]:
        metrics[m["name"]] = dict(m, bound=None)
    return spec, metrics


def run_once(root, workload, seed, seconds, trace):
    cmd = ["python3", os.path.join("rodin_bench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    # Each checkout builds into its own .bench_build/.
    env = {k: v for k, v in os.environ.items() if k != "CARGO_TARGET_DIR"}
    proc = subprocess.run(cmd, cwd=root, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"steady.py: run failed in {root} (seed {seed}, exit "
                 f"{proc.returncode}):\n{proc.stdout}")
    result = json.loads(lines[-1])
    return {k: v["value"] for k, v in result["metrics"].items()}


def summary(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / abs(med) if med else float("inf")
    return med, q1, q3, spread


def worse_by(parent_med, change_med, better):
    """How much worse the change's median is, as a share of the parent's."""
    if parent_med == 0:
        return 0.0
    delta = (change_med - parent_med) / abs(parent_med)
    return delta if better == "lower" else -delta


def steadiness(args, metrics):
    runs = []
    for i in range(args.runs):
        runs.append(run_once(args.change, args.workload, args.seed0 + i,
                             args.seconds, args.trace))
        print(f"run {i + 1}/{args.runs} done", file=sys.stderr)
    flagged = 0
    print(f"{'metric':34} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'spread':>8} {'bound':>6}")
    for name in runs[0]:
        med, q1, q3, spread = summary([r[name] for r in runs])
        bound = metrics[name]["bound"]
        flag = ""
        if bound is not None and name != "setup_s" and spread > bound:
            flag, flagged = "  OVER BOUND", flagged + 1
        elif bound is not None and spread > bound / 3:
            flag = "  over a third of the bound"
        print(f"{name:34} {med:12.5g} {q1:12.5g} {q3:12.5g} "
              f"{spread:8.4f} {bound if bound is not None else '-':>6}{flag}")
    print("\nevery run (seed: values in the order above)")
    for i, r in enumerate(runs):
        print(f"{args.seed0 + i:5}: " + " ".join(f"{v:.5g}" for v in r.values()))
    return 1 if flagged else 0


def pairs(args, metrics):
    sides = {"parent": [], "change": []}
    for i in range(args.runs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            root = args.parent if side == "parent" else args.change
            sides[side].append(run_once(root, args.workload, args.seed0 + i,
                                        args.seconds, args.trace))
        print(f"pair {i + 1}/{args.runs} done", file=sys.stderr)
    regressions = 0
    print(f"{'metric':34} {'parent med [q1,q3]':>30} "
          f"{'change med [q1,q3]':>30} {'wins':>6} {'worse':>7}")
    for name in sides["parent"][0]:
        better = metrics[name]["better"]
        p = [r[name] for r in sides["parent"]]
        c = [r[name] for r in sides["change"]]
        pm, pq1, pq3, _ = summary(p)
        cm, cq1, cq3, _ = summary(c)
        wins = sum((cv < pv) if better == "lower" else (cv > pv)
                   for pv, cv in zip(p, c))
        worse = worse_by(pm, cm, better)
        bound = metrics[name]["bound"]
        flag = ""
        if bound is not None and worse > bound:
            flag, regressions = "  WORSE THAN BOUND", regressions + 1
        print(f"{name:34} {pm:10.5g} [{pq1:8.4g},{pq3:8.4g}] "
              f"{cm:10.5g} [{cq1:8.4g},{cq3:8.4g}] {wins:3}/{len(p):<2} "
              f"{worse:+7.3f}{flag}")
    print("\nevery run (metric: parent values | change values, by seed)")
    for name in sides["parent"][0]:
        print(f"{name}: " +
              " ".join(f"{r[name]:.5g}" for r in sides["parent"]) + " | " +
              " ".join(f"{r[name]:.5g}" for r in sides["change"]))
    return 1 if regressions else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed0", type=int, default=1,
                    help="seed of the first run; run i uses seed0 + i")
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--parent", default=None,
                    help="root of the parent checkout (enables pairs mode)")
    ap.add_argument("--change", default=os.path.dirname(HERE),
                    help="root of the change checkout (default: this one)")
    args = ap.parse_args()
    if args.runs < 2:
        ap.error("--runs must be at least 2 to compute quartiles")
    spec, metrics = load_spec(args.change)
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    sys.exit(pairs(args, metrics) if args.parent else
             steadiness(args, metrics))


if __name__ == "__main__":
    main()
