#!/usr/bin/env python3
"""Steadiness of the benchmark: run each workload repeatedly, one seed
per run (seeds 1 to 10), and print per end-to-end metric the median,
the quartiles and the spread (distance between the quartiles as a share
of the median) next to the metric's bound in BENCHMARK.json.

    python3 perfbench/steady.py [--workloads a,b]

Run from the repository root. A spread below a third of the bound is
marked "steady". The share of failed operations must be the same in
every run of a workload.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEEDS = range(1, 11)


def run_once(workload, seed, seconds):
    done = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed} failed ({done.returncode}):\n{done.stderr}")
    return json.loads(lines[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    args = p.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seconds = bench["run_seconds"]
    print(f"{len(SEEDS)} runs per workload, seeds {SEEDS.start}..{SEEDS.stop - 1}, "
          f"{seconds} s each")
    print(f"{'workload':<14} {'metric':<12} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'spread':>8} {'bound':>6}")
    for workload in args.workloads.split(","):
        results = [run_once(workload, seed, seconds) for seed in SEEDS]
        shares = {(r["failed"], r["attempted"]) for r in results}
        fails = sorted({r["failed"] / r["attempted"] for r in results})
        correct = all(r["correct"] for r in results)
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in results]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            verdict = "steady" if spread < bound / 3 else "WIDE"
            print(f"{workload:<14} {name:<12} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} "
                  f"{spread:>8.4f} {bound:>6} {verdict}")
            print(f"{'':<14} {'':<12} runs: " + " ".join(f"{v:.4g}" for v in values))
        print(f"{workload:<14} correct={correct} failed share={fails} "
              f"(failed/attempted pairs: {len(shares)} distinct)")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
