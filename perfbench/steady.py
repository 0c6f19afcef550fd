#!/usr/bin/env python3
"""Steadiness check for the benchmark in BENCHMARK.json.

Runs each workload K times back to back, each run with its own seed,
and prints every metric's median, quartiles and spread (interquartile
distance as a share of the median, from statistics.quantiles(n=4)).
An end-to-end metric whose spread exceeds its bound is flagged; one
above a third of its bound is marked as tight. Every run's result line
is also checked against BENCHMARK.json: same metric names and units,
correct = true, failed = 0.

Run from the repository root:

    python3 perfbench/steady.py                  # every workload, k = 5
    python3 perfbench/steady.py -k 10 --workload decide-r2 --seed 100
    python3 perfbench/steady.py --trace 1 -k 3   # per-layer metrics

Exit status is 0 when no run failed and no end-to-end spread exceeds
its bound.
"""

import argparse
import json
import statistics
import subprocess
import sys


def run_once(command, workload, seed, seconds, trace):
    args = command + [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", str(trace),
    ]
    proc = subprocess.run(args, stdout=subprocess.PIPE, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}")
    return json.loads(lines[-1])


def check_result(result, declared):
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if not result.get("correct") or result.get("failed") != 0:
        problems.append(f"correct={result.get('correct')} failed={result.get('failed')}")
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    want = {m["name"]: m["unit"] for m in declared}
    if got != want:
        problems.append(f"metrics differ from BENCHMARK.json: {sorted(set(got) ^ set(want))}")
    return problems


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("-k", type=int, default=5, help="runs per workload")
    parser.add_argument("--workload", action="append", help="workload (repeatable; default all)")
    parser.add_argument("--seed", type=int, default=1, help="seed of the first run")
    parser.add_argument("--seconds", type=int, help="run length (default: run_seconds)")
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    parser.add_argument("--same-seed", action="store_true",
                        help="repeat the first seed (separates host noise from input variance)")
    parser.add_argument("--raw", action="store_true", help="also print every run's values")
    args = parser.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    declared = bench["per_layer"] if args.trace else bench["end_to_end"]
    bounds = {m["name"]: m.get("bound") for m in declared}
    seconds = args.seconds or bench["run_seconds"]
    workloads = args.workload or [w["name"] for w in bench["workloads"]]

    bad = False
    for workload in workloads:
        values = {m["name"]: [] for m in declared}
        for i in range(args.k):
            seed = args.seed if args.same_seed else args.seed + i
            result = run_once(bench["command"], workload, seed, seconds, args.trace)
            problems = check_result(result, declared)
            for p in problems:
                print(f"FAIL {workload} seed {seed}: {p}")
            bad |= bool(problems)
            for name, m in result["metrics"].items():
                if name in values:
                    values[name].append(m["value"])
        last = args.seed if args.same_seed else args.seed + args.k - 1
        print(f"\n{workload}: {args.k} runs, seeds {args.seed}..{last}")
        print(f"  {'metric':<34} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8} {'bound':>6}")
        for name, vals in values.items():
            if len(vals) < 2:
                continue
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else 0.0
            bound = bounds[name]
            flag = ""
            if bound is not None:
                if spread > bound:
                    flag = "OVER BOUND"
                    bad = True
                elif spread > bound / 3:
                    flag = "tight"
            bound_s = f"{bound:.2f}" if bound is not None else "-"
            print(f"  {name:<34} {med:>14.6g} {q1:>14.6g} {q3:>14.6g} {spread:>8.4f} {bound_s:>6} {flag}")
            if args.raw:
                print("    " + " ".join(f"{v:.6g}" for v in vals))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
