#!/usr/bin/env python3
"""Stability check of the benchmark.

Runs every workload once per seed (untraced) and reports, for each
end-to-end metric, the spread of its values: the distance between the first
and third quartile as a share of the median. A spread above the metric's
bound in BENCHMARK.json fails the check; a spread above a third of the bound
is flagged.

It then runs the first seed again and checks that the deterministic counts
(the `counts` line the benchmark prints) repeat exactly.

With --save, the values and counts of the set are written to a file; with
--compare, a saved set is read back and the check also fails when a
metric's median is worse than the saved median by more than its bound, or
when a workload's counts differ from the saved ones.

Run from the repository root:

    python3 perfbench/stability.py                   # 10 seeds, every workload
    python3 perfbench/stability.py --seeds 5 --workloads job_serve
    python3 perfbench/stability.py --save first.json
    python3 perfbench/stability.py --compare first.json
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run(bench, workload, seed, trace=0):
    cmd = bench["command"] + [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(bench["run_seconds"]),
        "--trace", str(trace),
    ]
    started = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    wall = time.monotonic() - started
    lines = proc.stdout.strip().splitlines()
    if not lines:
        sys.exit(f"{workload} seed {seed}: no output (exit {proc.returncode})\n{proc.stderr}")
    result = json.loads(lines[-1])
    counts = next((l for l in lines if l.startswith("counts ")), None)
    context = next((l for l in lines if l.startswith("context ")), "context {}")
    context = json.loads(context[len("context "):])
    kernel_us = context.get("kernel_us", "?").split()[0]
    problems = [l for l in lines if l.startswith("problem ")]
    info = f"wall={wall:.1f}s steal={context.get('steal_share', '?')} kernel_us={kernel_us}"
    return proc.returncode, result, counts, problems, info


def spread(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, (q3 - q1) / median if median else float("inf")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", default="")
    parser.add_argument("--save", help="write this set's values and counts to a file")
    parser.add_argument("--compare", help="compare medians and counts with a saved set")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    workloads = [w["name"] for w in bench["workloads"]]
    if args.workloads:
        workloads = args.workloads.split(",")
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    lower_is_better = {m["name"]: m["better"] == "lower" for m in bench["end_to_end"]}
    saved = None
    if args.compare:
        with open(args.compare) as f:
            saved = json.load(f)
    this_set = {}

    ok = True
    for workload in workloads:
        values = {name: [] for name in bounds}
        first_counts = None
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            code, result, counts, problems, run_info = run(bench, workload, seed)
            if code != 0 or not result["correct"] or result["failed"]:
                ok = False
                print(f"{workload} seed {seed}: exit {code}, correct={result['correct']}, "
                      f"failed={result['failed']}")
                for p in problems:
                    print(f"  {p}")
            if first_counts is None:
                first_counts = counts
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
            summary = " ".join(f"{n}={values[n][-1]:.4g}" for n in bounds)
            print(f"{workload} seed {seed}: {summary} {run_info}", flush=True)

        _, _, again, _, _ = run(bench, workload, args.first_seed)
        if again != first_counts:
            ok = False
            print(f"{workload}: counts differ between two runs of seed {args.first_seed}")
            print(f"  first: {first_counts}\n  again: {again}")
        else:
            print(f"{workload}: counts repeat exactly for seed {args.first_seed}")

        for name, bound in bounds.items():
            median, share = spread(values[name])
            verdict = "ok"
            if share > bound / 3:
                verdict = "above a third of the bound"
            if share > bound:
                verdict = "ABOVE THE BOUND"
                ok = False
            print(f"  {workload:14} {name:18} median {median:12.5g}  spread {share:7.4f}  "
                  f"bound {bound:.2f}  {verdict}")
        this_set[workload] = {"values": values, "counts": first_counts}

        if saved is not None and workload in saved:
            before = saved[workload]
            if before["counts"] != first_counts:
                ok = False
                print(f"  {workload}: counts differ from the saved set")
            for name, bound in bounds.items():
                old = statistics.median(before["values"][name])
                new = statistics.median(values[name])
                worse = (new - old) / old if lower_is_better[name] else (old - new) / old
                verdict = "ok"
                if worse > bound:
                    verdict = "WORSE THAN THE SAVED SET BY MORE THAN THE BOUND"
                    ok = False
                print(f"  {workload:14} {name:18} saved median {old:12.5g}  now {new:12.5g}  "
                      f"worse by {worse:+7.4f}  {verdict}")

    if args.save:
        with open(args.save, "w") as f:
            json.dump(this_set, f, indent=1)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
