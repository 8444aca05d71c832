#!/usr/bin/env python3
"""Steadiness report: runs every workload of BENCHMARK.json repeatedly,
alternating their order, one fresh seed per round, and prints each
metric's median, quartiles and spread (interquartile distance over the
median, as statistics.quantiles(values, n=4) gives the quartiles) next to
the bound BENCHMARK.json sets for it.

Run from the repository root:

    python3 benchmark/steadiness.py --runs 10
    python3 benchmark/steadiness.py --runs 5 --workloads plan_scale
    python3 benchmark/steadiness.py --runs 3 --trace 1

The first run builds the benchmark (cargo, release profile) if needed.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time


def load_spec(root):
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


def run_once(root, spec, workload, seed, seconds, trace):
    cmd = spec["command"] + [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", str(trace),
    ]
    started = time.monotonic()
    out = subprocess.run(cmd, cwd=root, capture_output=True, text=True, check=False)
    wall = time.monotonic() - started
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.stderr.write(out.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {out.returncode}")
    return json.loads(lines[-1]), wall


def main():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    spec = load_spec(root)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed-base", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    args = parser.parse_args()
    workloads = args.workloads.split(",")
    metrics = spec["per_layer"] if args.trace else spec["end_to_end"]

    results = {w: [] for w in workloads}
    for r in range(args.runs):
        order = workloads if r % 2 == 0 else list(reversed(workloads))
        seed = args.seed_base + r
        for w in order:
            result, wall = run_once(root, spec, w, seed, args.seconds, args.trace)
            results[w].append(result)
            print(f"run {r + 1}/{args.runs} {w} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']} ({wall:.1f} s)",
                  flush=True)

    print()
    print(f"{'workload':<15} {'metric':<32} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'spread':>7} {'bound':>6}  steady")
    for w in workloads:
        runs = results[w]
        shares = {r["failed"] / r["attempted"] for r in runs}
        wrong = sum(1 for r in runs if not r["correct"])
        print(f"{w}: {len(runs)} runs, {wrong} incorrect, failed shares {sorted(shares)}")
        for m in metrics:
            values = [r["metrics"][m["name"]]["value"] for r in runs]
            med = statistics.median(values)
            if len(values) >= 2:
                q1, _, q3 = statistics.quantiles(values, n=4)
            else:
                q1 = q3 = med
            spread = (q3 - q1) / abs(med) if med else 0.0
            bound = m.get("bound")
            verdict = ""
            if bound is not None:
                verdict = "yes" if spread <= bound / 3 else ("within" if spread <= bound else "NO")
            bound_text = f"{bound:6.3f}" if bound is not None else "     -"
            print(f"{'':<15} {m['name']:<32} {med:12.5g} {q1:12.5g} {q3:12.5g} "
                  f"{spread:7.4f} {bound_text}  {verdict}")


if __name__ == "__main__":
    main()
