#!/usr/bin/env python3
"""Steadiness check: run one workload several times and report, for each
metric, the median, the quartiles and the spread (interquartile range over
the median) against the metric's bound in BENCHMARK.json.

Run from the repository root:

    python3 perfbench/steady.py --workload execute --runs 10
    python3 perfbench/steady.py --workload execute --runs 2 --same-seed 7 --trace 1

Seeds are 1, 2, ..., N unless --same-seed is given, and each run lasts
BENCHMARK.json's run_seconds.  Runs that share a seed must agree exactly
on the deterministic metrics, and every run must check correct with the
same share of failed operations.  Exits 1 if any of that fails or an
end-to-end spread (setup_s aside) exceeds its bound.
"""
import argparse
import json
import statistics
import subprocess
import sys

# metrics that are counts of the program's own work: identical for a seed
DETERMINISTIC = {
    "model_speedup_64", "machine.seconds_1", "machine.seconds_64",
    "pluto.alloc_mwords", "interp.fast_alloc_mwords",
    "interp.dynamic_ops", "interp.loads", "interp.stores",
    "interp.parallel_segments", "inspector.disjoint", "inspector.conflict",
    "pluto.units_parallel", "pluto.units_rejected",
    "pluto.units_runtime_checked", "serve.tu_hits", "serve.tu_misses",
    "serve.memo_hits", "serve.memo_misses", "serve.pool_streamed",
}


def run_once(workload, seed, seconds, trace):
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        stdout=subprocess.PIPE, text=True)
    if out.returncode != 0:
        sys.exit(f"run with seed {seed} exited {out.returncode}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--same-seed", type=int)
    ap.add_argument("--trace", type=int, default=0)
    args = ap.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    ok = True
    results = []
    for i in range(args.runs):
        seed = args.same_seed if args.same_seed is not None else 1 + i
        r = run_once(args.workload, seed, seconds, args.trace)
        results.append((seed, r))
        print(f"seed {seed}: correct={r['correct']} attempted={r['attempted']}"
              f" failed={r['failed']}", file=sys.stderr)
    shares = {r["failed"] / r["attempted"] for _, r in results}
    if not all(r["correct"] for _, r in results) or len(shares) != 1:
        print("FAIL: incorrect runs or unequal failed shares", shares)
        ok = False
    names = list(results[0][1]["metrics"])
    print(f"{'metric':28} {'median':>14} {'q1':>14} {'q3':>14} "
          f"{'spread':>8} {'bound':>6}  verdict")
    for name in names:
        vals = [r["metrics"][name]["value"] for _, r in results]
        q1, q2, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 \
            else (vals[0],) * 3
        spread = (q3 - q1) / abs(q2) if q2 else 0.0
        bound = bounds.get(name)
        verdict = ""
        if bound is not None:
            if spread <= bound / 3:
                verdict = "steady"
            elif spread <= bound:
                verdict = "within bound"
            else:
                verdict = "TOO WIDE"
                if name != "setup_s":
                    ok = False
        print(f"{name:28} {q2:14.6g} {q1:14.6g} {q3:14.6g} {spread:8.3f} "
              f"{bound if bound is not None else '':>6}  {verdict}")
    by_seed = {}
    for seed, r in results:
        by_seed.setdefault(seed, []).append(r["metrics"])
    for seed, runs in by_seed.items():
        for name in DETERMINISTIC & set(names):
            vals = {m[name]["value"] for m in runs}
            if len(vals) > 1:
                print(f"FAIL: {name} differs between runs of seed {seed}: {vals}")
                ok = False
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
