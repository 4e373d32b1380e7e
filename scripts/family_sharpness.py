#!/usr/bin/env python3
"""Which named families attain which bounds, and at which k.

For every (family instance, k) pair in a fixed sweep this prints the exact
invariants and the checks that hold with equality.  Useful for spotting new
sharpness candidates and for eyeballing how the invariants move with k.

    python3 scripts/family_sharpness.py --max-k 4
    python3 scripts/family_sharpness.py --family complete --max-size 14
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass
from typing import Callable, Iterator

from ktdom import (
    Graph,
    clique_chain,
    complete,
    complete_bipartite,
    cycle,
    disjoint_union,
    path,
    verify_all,
)


@dataclass(frozen=True)
class FamilyRow:
    label: str
    graph: Graph


def _instances(family: str, max_size: int) -> Iterator[FamilyRow]:
    builders: dict[str, Callable[[], Iterator[FamilyRow]]] = {
        "complete": lambda: (
            FamilyRow(f"K_{n}", complete(n)) for n in range(1, max_size + 1)
        ),
        "cycle": lambda: (
            FamilyRow(f"C_{n}", cycle(n)) for n in range(3, max_size + 1)
        ),
        "path": lambda: (
            FamilyRow(f"P_{n}", path(n)) for n in range(1, max_size + 1)
        ),
        "complete-bipartite": lambda: (
            FamilyRow(f"K_{a},{a}", complete_bipartite(a, a))
            for a in range(1, max_size // 2 + 1)
        ),
        "disjoint-cliques": lambda: (
            FamilyRow(f"{parts}K_{size}", disjoint_union([complete(size)] * parts))
            for size in range(2, 5)
            for parts in range(1, max_size // size + 1)
        ),
        "clique-chain": lambda: (
            FamilyRow(f"chain({b})", clique_chain(b)) for b in range(1, max_size // 4 + 1)
        ),
    }
    if family == "all":
        for name in builders:
            yield from builders[name]()
    elif family in builders:
        yield from builders[family]()
    else:
        raise SystemExit(f"unknown family {family!r}; choose from {', '.join(builders)} or all")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--family", default="all")
    parser.add_argument("--max-size", type=int, default=12, help="largest vertex count per family")
    parser.add_argument("--max-k", type=int, default=3)
    parser.add_argument("--sharp-only", action="store_true", help="print only rows with a sharp check")
    args = parser.parse_args()

    header = f"{'instance':<12} {'k':>2} {'n':>3} {'gamma':>5} {'d':>3} {'g_t':>4} {'d_t':>4}  sharp checks"
    print(header)
    print("-" * len(header))
    for row in _instances(args.family, args.max_size):
        for k in range(1, args.max_k + 1):
            report = verify_all(row.graph, k)
            if report.gamma is None:
                continue
            sharp = [c.check_id for c in report.checks if c.status == "sharp"]
            if args.sharp_only and not sharp:
                continue
            fmt = lambda v: "-" if v is None else v
            print(
                f"{row.label:<12} {k:>2} {report.n:>3} {report.gamma:>5} {report.d:>3} "
                f"{fmt(report.gamma_total):>4} {fmt(report.d_total):>4}  {', '.join(sharp) or '-'}"
            )
            if report.violations:
                raise SystemExit(
                    f"solver bug: {row.label} k={k} violates "
                    + ", ".join(c.check_id for c in report.violations)
                )


if __name__ == "__main__":
    try:
        main()
        sys.stdout.flush()
    except BrokenPipeError:
        pass  # the reader closed the pipe early (`| head`): stop quietly, with exit 0
