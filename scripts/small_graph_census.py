#!/usr/bin/env python3
"""Exhaustive census of the invariants over all labeled graphs up to n.

Counts the joint distribution of (gamma_xk, d_xk) per k, tallies check
statuses from the bound catalogue, and reports the graphs attaining each
sharp equality.  n = 6 takes a few minutes (32768 graphs); n <= 5 is seconds.

    python3 scripts/small_graph_census.py --max-n 5 --k 2
    python3 scripts/small_graph_census.py --max-n 5 --k 1 --csv census.csv
"""

from __future__ import annotations

import argparse
import csv
import os
import sys
import time
from collections import Counter
from itertools import combinations

from ktdom import Graph, verify_all


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--max-n", type=int, default=5)
    parser.add_argument("--k", type=int, default=1)
    parser.add_argument("--csv", help="optional per-graph CSV dump")
    args = parser.parse_args()
    if args.max_n > 6:
        raise SystemExit("refusing max-n > 6: the labeled-graph count doubles per edge slot")

    value_pairs: Counter[tuple[int, int]] = Counter()
    statuses: Counter[str] = Counter()
    sharp_by_check: Counter[str] = Counter()
    gated = 0
    total = 0
    writer = None
    sink = None
    if args.csv:
        sink = open(args.csv, "w", encoding="utf-8", newline="")
        writer = csv.writer(sink, lineterminator="\n")
        writer.writerow(["n", "edge_mask", "delta", "gamma", "d", "gamma_total", "d_total"])

    start = time.perf_counter()
    for n in range(1, args.max_n + 1):
        pair_list = list(combinations(range(n), 2))
        for mask in range(1 << len(pair_list)):
            g = Graph(n, [pair_list[i] for i in range(len(pair_list)) if mask >> i & 1])
            total += 1
            report = verify_all(g, args.k)
            for c in report.checks:
                statuses[c.status] += 1
                if c.status == "sharp":
                    sharp_by_check[c.check_id] += 1
            if report.violations:
                raise SystemExit(f"solver bug on n={n} mask={mask} k={args.k}")
            if report.gamma is None:
                continue
            gated += 1
            value_pairs[(report.gamma, report.d)] += 1
            if writer:
                writer.writerow([n, mask, report.delta, report.gamma, report.d,
                                 report.gamma_total, report.d_total])
    elapsed = time.perf_counter() - start
    if sink:
        sink.close()

    print(f"k = {args.k}: {total} labeled graphs with n <= {args.max_n}, "
          f"{gated} admit a solution ({elapsed:.1f}s)")
    print("\n(gamma, d) distribution:")
    for (gamma, d), count in sorted(value_pairs.items()):
        print(f"  gamma={gamma:>2} d={d:>2}: {count}")
    print("\ncheck statuses:")
    for status, count in sorted(statuses.items()):
        print(f"  {status:>15}: {count}")
    print("\nsharp equalities by check:")
    for check_id, count in sorted(sharp_by_check.items()):
        print(f"  {check_id:>4}: {count}")
    if args.csv:
        print(f"\nper-graph rows written to {args.csv}", file=sys.stderr)


if __name__ == "__main__":
    try:
        main()
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed the pipe early (`| head`): stop quietly, as `ktdom` does,
        # and send what is still buffered to devnull so the flush at exit cannot fail
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
