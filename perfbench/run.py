#!/usr/bin/env python3
"""Runs one workload of BENCHMARK.json and prints its result.

    python3 perfbench/run.py --workload campaigns --seed 1 --seconds 30 --trace 0

Run from the root of a checkout. The script builds the `perfbench`
package (its own Cargo workspace, with the repository's crates as path
dependencies) into $CARGO_TARGET_DIR (default `.bench_build`), then runs
the workload in one process pinned to one CPU with `taskset`. It prints a
table of every metric with its unit and sample count, the run's host
context, and as its last line one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`.

Exits non-zero without a result when the build or the workload fails.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
MANIFEST = os.path.join(HERE, "Cargo.toml")

# One CPU: `mssim::sweep` then runs one worker, so work is never split
# across the two vCPUs of a shared VM and CPU time has ns resolution. CPU 1
# is preferred because CPU 0 takes most of the host's interrupts.
PREFERRED_CPU = 1

WORKLOAD_TIMEOUT_S = 170


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(1)


def build(target_dir):
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", MANIFEST]
    done = subprocess.run(cmd, env=env, stdout=sys.stderr, cwd=ROOT)
    if done.returncode != 0:
        fail("build failed")
    binary = os.path.join(target_dir, "release", "perfbench")
    if not os.path.isfile(binary):
        fail(f"no binary at {binary}")
    return binary


def pinned_cpu():
    allowed = sorted(os.sched_getaffinity(0))
    return PREFERRED_CPU if PREFERRED_CPU in allowed else allowed[0]


def steal_ticks(cpu):
    """The steal column of /proc/stat for one CPU, in clock ticks."""
    with open("/proc/stat") as f:
        for line in f:
            fields = line.split()
            if fields[0] == f"cpu{cpu}":
                return int(fields[8])
    return 0


def launch(binary, cpu, args):
    cmd = ["taskset", "-c", str(cpu), binary] + args
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, cwd=ROOT,
                              timeout=WORKLOAD_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        fail(f"workload timed out: {' '.join(cmd)}")
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        fail(f"workload failed (exit {done.returncode}): {' '.join(cmd)}")
    return json.loads(lines[-1])


def declared(section):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec[section]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    target_dir = os.path.abspath(
        os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build")))
    binary = build(target_dir)
    cpu = pinned_cpu()
    span_dir = os.path.join(target_dir, "spans", f"{args.workload}-seed{args.seed}")

    steal_before = steal_ticks(cpu)
    result = launch(binary, cpu, [
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--out", span_dir])
    steal_s = (steal_ticks(cpu) - steal_before) / os.sysconf("SC_CLK_TCK")

    metrics = result["metrics"]
    if args.trace:
        metrics["host.steal_s"] = {"value": steal_s, "unit": "s", "samples": 1}
    expected = declared("per_layer" if args.trace else "end_to_end")
    for name, unit in expected.items():
        if name not in metrics or metrics[name]["unit"] != unit:
            fail(f"metric {name} [{unit}] missing from the result")

    mode = "traced" if args.trace else "untraced"
    print(f"{args.workload} (seed {args.seed}, {mode}, pinned to CPU {cpu}, "
          f"{args.seconds:g} s)")
    for name in expected:
        m = metrics[name]
        print(f"  {name:28s} {m['value']:>16.6g} {m['unit']:6s} n={m['samples']}")
    print(f"  context: host.steal_s={steal_s:g} on CPU {cpu}; "
          + ", ".join(f"{k}={v}" for k, v in result["notes"].items()))
    print(f"  checks: {result['attempted']} attempted, {result['failed']} failed")

    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": metrics[name]["value"], "unit": unit}
                    for name, unit in expected.items()},
    }))


if __name__ == "__main__":
    main()
