#!/usr/bin/env python3
"""Compare two checkouts on one benchmark workload in alternating pairs.

Each pair runs `perfbench/run.py --workload W --seed S --seconds T` once in
each checkout, in a fresh process per run, and flips which side runs first
from one pair to the next, so drift on the machine falls on both sides.  The
benchmark files of each checkout measure that checkout.

For every end-to-end metric declared in the base checkout's BENCHMARK.json it
prints the median and quartiles of each side, the relative change of the
medians, the pairs the change won (ties count for neither side), the metric's
declared bound and the acceptance rule's verdict (`verdict`): `gain`, `worse`
or `-`.  The exit code is 1 when any run is not `correct: true` or prints no
result, 0 otherwise, whatever the verdicts.

Usage: python scripts/ab_bench.py --base DIR --change DIR --workload W
           --seed S --seconds T --pairs K
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

SIDES = ("base", "change")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--base", required=True, help="checkout of the parent commit")
    p.add_argument("--change", required=True, help="checkout of the change")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--pairs", type=int, required=True)
    args = p.parse_args(argv)
    if args.pairs < 1 or args.seconds <= 0:
        p.error("--pairs must be >= 1 and --seconds > 0")
    return args


def run_once(root: str, args) -> dict | None:
    """One benchmark run in `root`; its final JSON line, or None if it printed none."""
    cmd = [sys.executable, os.path.join(root, "perfbench", "run.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds)]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        sys.stderr.write(proc.stderr)
        return None


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3)."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def verdict(pairs: list[tuple[float, float]], better: str, bound: float) -> str:
    """The acceptance rule on one metric's (base, change) pairs.

    `worse`: the change's median is worse than the base's by more than
    `bound`, relative to the base's median.  `gain`: at least 10 pairs, at
    least 9 in 10 of them won by the change (ties count for neither side), and
    medians that differ by more than the base's interquartile range in the
    better direction.  `-` otherwise.
    """
    sign = 1.0 if better == "higher" else -1.0
    q1, base_median, q3 = quartiles([b for b, _ in pairs])
    change_median = quartiles([c for _, c in pairs])[1]
    if sign * (base_median - change_median) > bound * abs(base_median):
        return "worse"
    wins = sum(sign * (c - b) > 0 for b, c in pairs)
    if (len(pairs) >= 10 and 10 * wins >= 9 * len(pairs)
            and sign * (change_median - base_median) > q3 - q1):
        return "gain"
    return "-"


def main(argv=None) -> int:
    args = parse_args(argv)
    roots = {"base": os.path.abspath(args.base), "change": os.path.abspath(args.change)}
    with open(os.path.join(roots["base"], "BENCHMARK.json")) as fh:
        declared = json.load(fh)["end_to_end"]

    runs = {side: [] for side in SIDES}  # per side, one {metric: value} per pair
    all_correct = True
    for k in range(args.pairs):
        order = SIDES if k % 2 == 0 else SIDES[::-1]
        for side in order:
            res = run_once(roots[side], args)
            if res is None:
                print(f"pair {k + 1} {side}: the run printed no result")
                return 1
            all_correct &= res.get("correct") is True
            runs[side].append({name: m["value"] for name, m in res["metrics"].items()})
            shown = " ".join(f"{name}={value:.4g}" for name, value in runs[side][-1].items())
            print(f"pair {k + 1} {side:<6} correct={res.get('correct')} {shown}", flush=True)

    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds} "
          f"pairs {args.pairs}")
    print(f"{'metric':<12} {'base median [q1, q3]':>30} {'change median [q1, q3]':>30} "
          f"{'change':>9} {'wins':>6} {'bound':>6} {'verdict':>7}")
    for m in declared:
        name, sign = m["name"], 1.0 if m["better"] == "higher" else -1.0
        pairs = [(b[name], c[name]) for b, c in zip(runs["base"], runs["change"])
                 if name in b and name in c]
        if not pairs:
            print(f"{name:<12} missing")
            continue
        stats = [quartiles(list(side)) for side in zip(*pairs)]
        cols = [f"{med:.4g} [{q1:.4g}, {q3:.4g}]" for q1, med, q3 in stats]
        rel = (stats[1][1] / stats[0][1] - 1.0) * 100.0
        wins = sum(sign * (c - b) > 0 for b, c in pairs)
        print(f"{name:<12} {cols[0]:>30} {cols[1]:>30} {rel:+8.2f}% "
              f"{wins:>3}/{len(pairs)} {m['bound']:>6g} "
              f"{verdict(pairs, m['better'], m['bound']):>7}")
    if not all_correct:
        print("a run was not correct: true")
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
