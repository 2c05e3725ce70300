#!/usr/bin/env python3
"""Measures the benchmark's run-to-run spread and set-to-set drift.

    python3 perfbench/spread.py --runs 10 [--sets 2] [--workloads campaigns] [--first-seed 1]

Runs `run.py` once per seed (first-seed, first-seed + 1, ...) for each
workload, and repeats that whole set `--sets` times. For every end-to-end
metric it prints each set's median, first and third quartiles
(`statistics.quantiles(values, n=4)`) and spread (Q3 - Q1) / median
beside the metric's bound in BENCHMARK.json, and then how far each later
set's median is worse than the first set's. A spread above a third of its
bound, or a median worse than the first set's by more than its bound, is
flagged and makes the exit code 1.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_set(spec, workload, seeds):
    """Each end-to-end metric's values over one set of seeded runs."""
    values = {m["name"]: [] for m in spec["end_to_end"]}
    failed = 0
    for seed in seeds:
        done = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
             "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", "0"],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
        result = json.loads(done.stdout.strip().splitlines()[-1])
        failed += result["failed"]
        for name in values:
            values[name].append(result["metrics"][name]["value"])
    return values, failed


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", nargs="*",
                        default=[w["name"] for w in spec["workloads"]])
    args = parser.parse_args()

    metrics = {m["name"]: m for m in spec["end_to_end"]}
    seeds = range(args.first_seed, args.first_seed + args.runs)
    steady = True
    medians = {}
    for k in range(args.sets):
        for workload in args.workloads:
            values, failed = run_set(spec, workload, seeds)
            print(f"{workload} set {k + 1} ({args.runs} runs, seeds {seeds.start}.."
                  f"{seeds.stop - 1}, {failed} failed checks)")
            steady &= failed == 0
            for name, vs in values.items():
                q1, med, q3 = statistics.quantiles(vs, n=4)
                spread = (q3 - q1) / med
                bound = metrics[name]["bound"]
                flag = ""
                if spread > bound / 3:
                    flag = "  above a third of the bound"
                    steady = False
                print(f"  {name:16s} median {med:<14.6g} Q1 {q1:<14.6g} Q3 {q3:<14.6g} "
                      f"spread {spread:6.2%} (bound {bound:.0%}){flag}")
                print("    runs: " + " ".join(f"{v:.4g}" for v in vs))
                medians.setdefault((workload, name), []).append(med)
            sys.stdout.flush()
    if args.sets > 1:
        print(f"median drift of sets 2..{args.sets} from set 1 (worse is positive)")
        for (workload, name), meds in medians.items():
            m = metrics[name]
            sign = 1 if m["better"] == "lower" else -1
            drifts = [sign * (med - meds[0]) / meds[0] for med in meds[1:]]
            flag = ""
            if max(drifts) > m["bound"]:
                flag = "  worse than the bound"
                steady = False
            print(f"  {workload:14s} {name:16s} "
                  + " ".join(f"{d:+7.2%}" for d in drifts)
                  + f" (bound {m['bound']:.0%}){flag}")
    sys.exit(0 if steady else 1)


if __name__ == "__main__":
    main()
