"""Reference figures: repeated runs of every workload, medians and spreads.

Run from the root of the checkout:

    python3 bench/reference.py --runs 10 --first-seed 1

Each workload runs ``--runs`` times through ``bench/run.py``, one seed per
run, with ``run_seconds`` from ``BENCHMARK.json``, then once traced.  For
every end-to-end metric the script prints the median, the quartiles and
the spread (interquartile distance over the median, as
``statistics.quantiles(values, n=4)`` gives the quartiles) next to the
metric's bound, and writes every run to ``bench/results/reference.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited with {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seeds = range(args.first_seed, args.first_seed + args.runs)
    record = {"seconds": args.seconds, "seeds": list(seeds), "runs": {}, "traced": {}}
    print("| workload | metric | median | q1 | q3 | spread | bound | failed/attempted |")
    print("| --- | --- | --- | --- | --- | --- | --- | --- |")
    for wl in args.workloads:
        runs = [run_once(wl, s, args.seconds, 0) for s in seeds]
        record["runs"][wl] = runs
        shares = sorted({r["failed"] / r["attempted"] for r in runs})
        tally = f"{sum(r['failed'] for r in runs)}/{sum(r['attempted'] for r in runs)}"
        for name, bound in bounds.items():
            med, q1, q3, sp = spread([r["metrics"][name]["value"] for r in runs])
            print(f"| {wl} | {name} | {med:.4g} | {q1:.4g} | {q3:.4g} | {sp:.3f} | {bound} | {tally} |")
        if len(shares) > 1 or not all(r["correct"] for r in runs):
            print(f"| {wl} | failure shares {shares}, correct {[r['correct'] for r in runs]} |")
        sys.stdout.flush()
        record["traced"][wl] = run_once(wl, args.first_seed, args.seconds, 1)
    os.makedirs(os.path.join(BENCH_DIR, "results"), exist_ok=True)
    with open(os.path.join(BENCH_DIR, "results", "reference.json"), "w") as fh:
        json.dump(record, fh, indent=1)
    for wl, res in record["traced"].items():
        print(f"\n{wl} (traced, seed {args.first_seed}):")
        for name, metric in res["metrics"].items():
            print(f"  {name:46s} {metric['value']:12.5g} {metric['unit']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
