#!/usr/bin/env python3
"""A/A steadiness check for the Twill benchmark.

Runs the BENCHMARK.json command RUNS times per workload, seeds 1..RUNS,
rotating through the workloads so host drift spreads evenly, and prints for
every end-to-end metric the median, the quartiles and their spread as a
share of the median, next to the metric's bound; then, per op kind, the
median of the runs' per-kind median op times (the cost bands the
percentiles fall in).

    python3 perfbench/aa.py [--runs 10]

Run it from the repository root.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def run_once(cmd, workload, seed, seconds):
    argv = cmd + ["--workload", workload, "--seed", str(seed),
                  "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(argv, capture_output=True, text=True, timeout=900)
    if out.returncode != 0:
        sys.exit(f"{' '.join(argv)} exited {out.returncode}:\n{out.stderr}")
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload} seed {seed}: incorrect run: {result}")
    # "<workload>/kind <kind> runs <n> median <ms> ms"
    kinds = {l.split()[1]: float(l.split()[5])
             for l in lines if l.startswith(f"{workload}/kind ")}
    return {k: v["value"] for k, v in result["metrics"].items()}, kinds


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    args = ap.parse_args()

    bench = json.load(open("BENCHMARK.json"))
    workloads = [w["name"] for w in bench["workloads"]]
    values = {w: {} for w in workloads}
    kind_ms = {w: {} for w in workloads}
    for seed in range(1, args.runs + 1):
        for w in workloads:
            start = time.monotonic()
            metrics, kinds = run_once(bench["command"], w, seed, bench["run_seconds"])
            for name, v in metrics.items():
                values[w].setdefault(name, []).append(v)
            for kind, ms in kinds.items():
                kind_ms[w].setdefault(kind, []).append(ms)
            print(f"run {seed}/{args.runs} {w} seed {seed}: "
                  f"{time.monotonic() - start:.1f} s", file=sys.stderr)

    for w in workloads:
        print(f"\n{w}: {args.runs} runs, seeds 1..{args.runs}")
        print(f"  {'metric':<24} {'median':>12} {'q1':>12} {'q3':>12} "
              f"{'spread':>8} {'bound':>6}  verdict")
        for m in bench["end_to_end"]:
            v = values[w][m["name"]]
            q1, _, q3 = statistics.quantiles(v, n=4)
            med = statistics.median(v)
            spread = (q3 - q1) / med if med else 0.0
            verdict = ("steady" if spread < m["bound"] / 3 else
                       "within bound" if spread <= m["bound"] else "TOO NOISY")
            print(f"  {m['name']:<24} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} "
                  f"{spread:>8.4f} {m['bound']:>6}  {verdict}")
        print(f"  {'op kind':<24} {'median ms':>12} {'min':>12} {'max':>12}")
        for kind, ms in sorted(kind_ms[w].items(), key=lambda kv: statistics.median(kv[1])):
            print(f"  {kind:<24} {statistics.median(ms):>12.3f} {min(ms):>12.3f} {max(ms):>12.3f}")


if __name__ == "__main__":
    main()
