#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's spread.

Usage (from the repository root):

    python3 perfbench/spread.py --workload cold-sweep --seeds 1-10 [--trace 0]

For every metric it prints the median over the runs, the first and third
quartile as `statistics.quantiles(values, n=4)` gives them, and the
spread (q3 - q1) / median next to the metric's bound in BENCHMARK.json.
Each run's line also gives the share of the machine's CPU time that other
guests stole while it ran, where /proc/stat reports it.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def seeds(text):
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def cpu_times():
    """The machine's CPU time counters from /proc/stat (user, nice, system,
    idle, iowait, irq, softirq, steal, ...), or [] where there is none."""
    try:
        with open("/proc/stat") as f:
            return [int(v) for v in f.readline().split()[1:]]
    except OSError:
        return []


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", default="0")
    parser.add_argument("--seconds", type=int)
    args = parser.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    values = {}
    for seed in seeds(args.seeds):
        cmd = bench["command"] + ["--workload", args.workload, "--seed", str(seed),
                                  "--seconds", str(seconds), "--trace", args.trace]
        begun = time.time()
        before = cpu_times()
        proc = subprocess.run(cmd, capture_output=True, text=True)
        after = cpu_times()
        wall = time.time() - begun
        ticks = [b - a for a, b in zip(before, after)]
        steal = 100 * ticks[7] / max(sum(ticks), 1) if len(ticks) > 7 else 0.0
        if proc.returncode != 0:
            sys.exit(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        print(f"seed {seed}: {wall:.1f} s, attempted {result['attempted']}, "
              f"failed {result['failed']}, correct {result['correct']}, "
              f"CPU time stolen by other guests {steal:.2f}%", flush=True)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])

    print(f"{'metric':<36} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8} {'bound':>6}")
    for name, vals in values.items():
        mid = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (vals[0],) * 3
        spread = (q3 - q1) / abs(mid) if mid else float("nan")
        bound = bounds.get(name)
        flag = " !" if bound is not None and spread > bound / 3 else ""
        print(f"{name:<36} {mid:>14.4f} {q1:>14.4f} {q3:>14.4f} {spread:>8.4f} "
              f"{bound if bound is not None else '':>6}{flag}")


if __name__ == "__main__":
    main()
