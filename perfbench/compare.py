"""Paired comparison of two checkouts on the benchmark.

    python3 perfbench/compare.py --base ../parent --change . \\
        --pairs 10 [--workloads sweep-sensitivity serve-mix]

Both sides run this directory's ``run.py`` (identical benchmark code)
for ``BENCHMARK.json``'s ``run_seconds``, each from the root of its own
checkout; pass the same path twice to measure the noise of one checkout.
Pair ``i`` uses seed ``SEED_BASE + i`` on both sides, and the side that
runs first alternates between pairs.

For every workload and end-to-end metric it prints each side's median
and quartiles, each side's quartile spread and the gap between the
medians (both as a share of the base median, beside the metric's bound),
the share of pairs the change won (ties count for neither side), and a
verdict: ``better``/``worse`` when the change wins (or loses) at least
nine pairs in ten *and* the medians differ by more than the base's own
quartile spread, else ``unresolved``. It also prints each side's share
of failed operations, which must be the same on both.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
#: Pair ``i`` runs seed ``SEED_BASE + i``.
SEED_BASE = 1000


def parse_args(argv=None):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--base", required=True, help="base checkout root")
    parser.add_argument("--change", required=True,
                        help="changed checkout root")
    parser.add_argument("--workloads", nargs="+", default=names,
                        choices=names)
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args(argv)
    args.seconds = spec["run_seconds"]
    args.metrics = spec["end_to_end"]
    return args


def run_once(checkout, workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(
            f"{checkout}: {workload} seed {seed} exited {proc.returncode}\n"
            f"{proc.stdout[-2000:]}{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    values = {name: m["value"] for name, m in result["metrics"].items()}
    values["failed/attempted"] = (result["failed"], result["attempted"])
    return values


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(base, change, better):
    wins = losses = 0
    for b, c in zip(base, change):
        if c == b:
            continue
        change_better = c < b if better == "lower" else c > b
        wins += change_better
        losses += not change_better
    q1, med_b, q3 = quartiles(base)
    med_c = statistics.median(change)
    gap_clear = abs(med_c - med_b) > (q3 - q1)
    share = wins / len(base)
    if gap_clear and share >= 0.9:
        label = "better"
    elif gap_clear and losses / len(base) >= 0.9:
        label = "worse"
    else:
        label = "unresolved"
    return share, gap_clear, label


def main(argv=None) -> int:
    args = parse_args(argv)
    sides = {"base": os.path.abspath(args.base),
             "change": os.path.abspath(args.change)}
    print(f"base={sides['base']} change={sides['change']} "
          f"pairs={args.pairs} seconds={args.seconds} "
          f"seeds={SEED_BASE}..{SEED_BASE + args.pairs - 1}")
    for workload in args.workloads:
        runs = {"base": [], "change": []}
        for i in range(args.pairs):
            order = ("base", "change") if i % 2 == 0 else ("change", "base")
            for side in order:
                runs[side].append(run_once(sides[side], workload,
                                           SEED_BASE + i, args.seconds))
        print(f"\n{workload}")
        for side in ("base", "change"):
            shares = sorted({f"{f}/{a}" for f, a in
                             (r["failed/attempted"] for r in runs[side])})
            print(f"  {side} failed/attempted: {', '.join(shares)}")
        print(f"  {'metric':16s} {'base q1/med/q3':>28s} "
              f"{'change q1/med/q3':>28s} {'IQR b':>6s} {'IQR c':>6s} "
              f"{'gap':>6s} {'bound':>6s}  won  gap>IQR  verdict")
        for metric in args.metrics:
            name = metric["name"]
            base = [r[name] for r in runs["base"]]
            change = [r[name] for r in runs["change"]]
            share, gap, label = verdict(base, change, metric["better"])
            qb, qc = quartiles(base), quartiles(change)
            fmt = "{:.4g}/{:.4g}/{:.4g}"
            print(f"  {name:16s} {fmt.format(*qb):>28s} "
                  f"{fmt.format(*qc):>28s} "
                  f"{(qb[2] - qb[0]) / qb[1]:6.1%} "
                  f"{(qc[2] - qc[0]) / qc[1]:6.1%} "
                  f"{(qc[1] - qb[1]) / qb[1]:+6.1%} {metric['bound']:6.0%}"
                  f"  {share:4.0%}  {str(gap):7s}  {label}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
