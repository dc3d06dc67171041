#!/usr/bin/env python3
"""Repeats the benchmark and summarises each end-to-end metric.

Run from the root of a checkout:

    python3 scanbench/spread.py --runs 10                  # every workload
    python3 scanbench/spread.py --runs 10 --workload svc_rtt
    python3 scanbench/spread.py --runs 10 --against ../parent

Alone, it runs each workload --runs times with seeds --seed, --seed+1, ...
and prints, per metric, the median, the quartiles (Python's
statistics.quantiles, n=4) and the spread: (q3 - q1) / median, the number
a metric's bound in BENCHMARK.json must exceed.

With --against DIR, DIR is a second checkout (the parent commit, with this
checkout's scanbench/ copied in so both sides run identical benchmark
code). Runs alternate between the two checkouts in pairs, which side goes
first alternating too, and each pair shares a seed. Per metric it prints
both sides' medians and quartiles, the share of pairs the change won, and
a verdict: "gain" when the change won at least 9 in 10 pairs and the
medians differ by more than the parent's quartile distance; "regression"
when the change's median is worse than the parent's by more than the
metric's bound; "unresolved" when the parent's own spread exceeds the
bound; "same" otherwise.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def load_benchmark():
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(checkout, workload, seed, seconds):
    env = dict(os.environ, CARGO_TARGET_DIR=os.path.join(checkout, ".bench_build"))
    cmd = ["bash", "scanbench/run.sh", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed} in {checkout} failed (exit {proc.returncode})")
    result = json.loads(lines[-1])
    if not result["correct"]:
        sys.exit(f"{workload} seed {seed} in {checkout}: outputs were wrong")
    return {name: m["value"] for name, m in result["metrics"].items()}


def summary(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / abs(med)


def worse_by(metric, parent, change):
    """Relative amount by which `change` is worse than `parent`."""
    delta = (change - parent) / abs(parent)
    return delta if metric["better"] == "lower" else -delta


def main():
    bench = load_benchmark()
    names = [w["name"] for w in bench["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--workload", action="append", choices=names)
    ap.add_argument("--against", help="second checkout to compare with (the parent)")
    ap.add_argument("--json", help="write every measured value here")
    args = ap.parse_args()
    root = os.path.dirname(HERE)
    sides = {"change": root} if not args.against else {"parent": os.path.abspath(args.against), "change": root}
    values = {side: {w: {} for w in args.workload or names} for side in sides}

    for workload in args.workload or names:
        for i in range(args.runs):
            order = list(sides) if i % 2 == 0 else list(reversed(sides))
            for side in order:
                for name, v in run_once(sides[side], workload, args.seed + i, args.seconds).items():
                    values[side][workload].setdefault(name, []).append(v)
            print(f"{workload}: run {i + 1}/{args.runs} done", file=sys.stderr)

        print(f"\n{workload}")
        for metric in bench["end_to_end"]:
            name = metric["name"]
            if not args.against:
                med, q1, q3, spread = summary(values["change"][workload][name])
                flag = "" if name == "setup_s" or spread < metric["bound"] / 3 else "  <- spread above bound/3"
                print(f"  {name:16} median {med:<14.6g} q1 {q1:<14.6g} q3 {q3:<14.6g} spread {spread:.4f}{flag}")
                continue
            parent, change = values["parent"][workload][name], values["change"][workload][name]
            pm, pq1, pq3, pspread = summary(parent)
            cm, cq1, cq3, _ = summary(change)
            wins = sum(worse_by(metric, p, c) < 0 for p, c in zip(parent, change)) / len(parent)
            if worse_by(metric, pm, cm) > metric["bound"]:
                verdict = "regression"
            elif wins >= 0.9 and abs(cm - pm) > pq3 - pq1:
                verdict = "gain"
            elif pspread > metric["bound"]:
                verdict = "unresolved"
            else:
                verdict = "same"
            print(f"  {name:16} parent {pm:<12.6g} [{pq1:.6g}, {pq3:.6g}]  change {cm:<12.6g} "
                  f"[{cq1:.6g}, {cq3:.6g}]  wins {wins:.0%}  {verdict}")

    if args.json:
        with open(args.json, "w") as f:
            json.dump(values, f, indent=1)


if __name__ == "__main__":
    main()
