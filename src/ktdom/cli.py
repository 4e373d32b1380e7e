"""Command line front end.

Subcommands: ``gen`` writes a graph as edge-list text, ``compute`` solves the
invariants of one instance, ``verify`` runs the bound catalogue, and
``ensemble`` sweeps seeded random instances into a CSV.  ``gen`` parses a
family name and its parameters and calls the generator in ``ktdom.graphs``
itself; ``gen from-file`` reads its input as ``compute`` and ``verify`` do,
with ``-`` for stdin.  Identical configuration (including seeds) always
produces byte-identical artifacts; exit status is 0 on success, 1 when a
check is violated or an oracle cross-check disagrees, and 2 for
configuration or input errors and when memory runs out.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import itertools
import json
import os
import sys
import warnings
from collections import Counter
from typing import Iterable

from .bounds import _VALUE_KEYS, CHECK_IDS, VIOLATED, BoundsReport, verify_all
from .graphs import (MAX_READ_VERTICES, Graph, PairingFailureError, clique_chain, complete, complete_bipartite, cycle,
                     disjoint_union, edge_lines, gnp, k_join, path, random_regular, read_graph)
from .reports import _INSTANCE_KEYS, _check_oracle_cap, compute_invariants, cross_check

NA = "NA"

# the families `gen` builds, in the order its help and errors list them
_FAMILIES = ("complete", "complete-bipartite", "cycle", "path", "disjoint-union", "k-join", "clique-chain", "gnp",
             "random-regular", "from-file")

# family -> (generator, integer parameter count, vertices per unit of their sum); these
# are also the families a disjoint-union or k-join part token such as complete:3 may name
_INTEGER_FAMILIES = {
    "complete": (complete, 1, 1),
    "complete-bipartite": (complete_bipartite, 2, 1),
    "cycle": (cycle, 1, 1),
    "path": (path, 1, 1),
    "clique-chain": (clique_chain, 1, 4),
}

# the BoundsReport values an ensemble row writes, in column order
_REPORT_COLUMNS = (*_INSTANCE_KEYS, *_VALUE_KEYS)

CSV_COLUMNS = (
    "instance_id",
    "model",
    "n_param",
    "p",
    "r_param",
    "instance_seed",
    *_REPORT_COLUMNS,
    *(f"check_{cid}" for cid in CHECK_IDS),
)

_EPILOG = f"""\
ensemble CSV columns (fixed order):
  {", ".join(CSV_COLUMNS)}
Absent values (a failed degree gate, an inapplicable model parameter) are
written as {NA}.  Rows are sorted by instance id; runs with the same
configuration are byte-identical.  Instance i of a run with master seed s
uses seed s * 1000003 + i.
"""


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except BrokenPipeError:
        # the reader closed the pipe early (`| head`): stop quietly, and send what is
        # still buffered to devnull so the flush at exit cannot fail
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except (ValueError, OSError, PairingFailureError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 2


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ktdom",
        description="Exact k-tuple domination and domatic invariants with certificates.",
        epilog=_EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a graph and write edge-list text")
    gen.add_argument("family", help=", ".join(_FAMILIES))
    gen.add_argument("params", nargs="*", help="family parameters; compound families take part "
                                               "tokens such as complete:3")
    gen.add_argument("--seed", type=int, default=None, help="seed for random families and seeded joins")
    gen.add_argument("--join-k", type=int, default=None, help="k of a k-join")
    gen.add_argument("--join-rule", choices=("all", "seeded"), default="all", help="k-join rule")
    gen.add_argument("-o", "--output", default="-", help="output path, '-' for stdout")
    gen.set_defaults(handler=_cmd_gen)

    compute = sub.add_parser("compute", help="solve the invariants of one graph")
    compute.add_argument("--input", required=True, help="edge-list file, '-' for stdin")
    compute.add_argument("--k", type=int, required=True)
    compute.add_argument("--mode", choices=("closed", "open", "both"), default="both")
    compute.add_argument("--oracle", action="store_true", help="cross-check against the brute-force references")
    compute.add_argument("--report", default="-", help="report path, '-' for stdout")
    compute.set_defaults(handler=_cmd_compute)

    verify = sub.add_parser("verify", help="run the bound catalogue on one graph")
    verify.add_argument("--input", required=True, help="edge-list file, '-' for stdin")
    verify.add_argument("--k", type=int, required=True)
    verify.add_argument("--report", default="-", help="report path, '-' for stdout")
    verify.set_defaults(handler=_cmd_verify)

    ensemble = sub.add_parser("ensemble", help="verify a seeded ensemble of random graphs")
    ensemble.add_argument("--model", choices=("gnp", "random-regular"), required=True)
    ensemble.add_argument("--n", type=int, required=True)
    ensemble.add_argument("--p", type=float, default=None, help="edge probability (gnp)")
    ensemble.add_argument("--r", type=int, default=None, help="degree (random-regular)")
    ensemble.add_argument("--count", type=int, required=True)
    ensemble.add_argument("--seed", type=int, required=True, help="master seed")
    ensemble.add_argument("--k", type=int, required=True)
    ensemble.add_argument("--oracle", action="store_true",
                          help="also cross-check each instance against the brute-force references")
    ensemble.add_argument("--csv", default="-", help="CSV path, '-' for stdout")
    ensemble.set_defaults(handler=_cmd_ensemble)

    return parser


def _write_text(path: str, lines: Iterable[str]) -> None:
    # one write per line, as each is produced: a reader that goes away mid-output then fails
    # the next write, where one large write would only come back short and lose the rest
    with contextlib.nullcontext(sys.stdout) if path == "-" else open(path, "w", encoding="utf-8", newline="") as fh:
        fh.writelines(lines)


def _read_input(path: str, source_name: str = "--input") -> Graph:
    """Read the edge-list input; a warning about it (a dropped duplicate
    edge) is printed as one line naming the input, not as a source location.
    An empty path is refused in the name of the option or family that gave it."""
    source = "<stdin>" if path == "-" else path
    with warnings.catch_warnings():
        warnings.showwarning = lambda message, *_: print(f"warning: {source}: {message}", file=sys.stderr)
        if path == "-":
            return read_graph(sys.stdin.read())
        if not path:
            raise ValueError(f"{source_name} needs a path")
        with open(path, encoding="utf-8") as fh:
            return read_graph(fh.read())


def _write_report(path: str, payload: dict, complaints: list[str]) -> int:
    """Write a JSON report, then each complaint to stderr; exit 1 if there was one."""
    _write_text(path, (json.dumps(payload, indent=2, sort_keys=True) + "\n").splitlines(keepends=True))
    for line in complaints:
        print(line, file=sys.stderr)
    return 1 if complaints else 0


def _int(token: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise ValueError(f"expected an integer parameter, got {token!r}") from None


def _float(token: str) -> float:
    try:
        return float(token)
    except ValueError:
        raise ValueError(f"expected a number, got {token!r}") from None


def _generate(args: argparse.Namespace) -> Graph:
    """Build the graph `gen` names.  Every parameter is parsed before its
    count is checked, and the vertex count and a seed are checked before a
    generator runs."""
    family, params = args.family, args.params
    if family in ("disjoint-union", "k-join"):
        parts = [_part(token) for token in params]
        if family == "disjoint-union":
            if not parts:
                raise ValueError("disjoint-union needs at least one part")
            return disjoint_union(_integer_graphs(parts))
        if len(parts) != 2:
            raise ValueError("k-join needs exactly two parts")
        if args.join_k is None:
            raise ValueError("k-join needs k")
        return k_join(*_integer_graphs(parts), args.join_k, rule=args.join_rule, seed=args.seed)
    if family == "from-file":
        if len(params) != 1:
            raise ValueError("from-file takes exactly one path")
        return _read_input(params[0], "from-file")
    if family == "gnp":
        if len(params) != 2:
            raise ValueError("gnp takes two parameters: n p")
        n, p = _int(params[0]), _float(params[1])
        return gnp(_within_limit(n), p, _seed(args))
    sizes = [_int(token) for token in params]
    if family == "random-regular":
        n, r = _arity(family, sizes, 2)
        return random_regular(_within_limit(n), r, _seed(args))
    if family not in _INTEGER_FAMILIES:
        raise ValueError(f"unknown family {family!r}, expected one of {', '.join(_FAMILIES)}")
    return _integer_graphs([(family, sizes)])[0]


def _within_limit(n: int) -> int:
    """n, unless a graph on n vertices is one that read_graph would refuse."""
    if n > MAX_READ_VERTICES:
        raise ValueError(f"vertex count {n} exceeds the limit of {MAX_READ_VERTICES}")
    return n


def _part(token: str) -> tuple[str, list[int]]:
    """Parse a part token such as ``complete:3`` or ``complete-bipartite:2,3``."""
    name, _, arg = token.partition(":")
    if name not in _INTEGER_FAMILIES:
        raise ValueError(f"part {token!r}: family must be one of {', '.join(_INTEGER_FAMILIES)}")
    try:
        return name, [int(s) for s in arg.split(",")] if arg else []
    except ValueError:
        raise ValueError(f"part {token!r}: sizes must be integers") from None


def _integer_graphs(parts: list[tuple[str, list[int]]]) -> list[Graph]:
    """Build each (family, sizes) part once their vertex count is within the limit; a
    negative count, which its generator refuses, counts 0 and offsets no other part."""
    total = 0
    for family, sizes in parts:
        _, count, per_unit = _INTEGER_FAMILIES[family]
        total += max(0, per_unit * sum(_arity(family, sizes, count)))
    _within_limit(total)
    return [_INTEGER_FAMILIES[family][0](*sizes) for family, sizes in parts]


def _arity(family: str, sizes: list[int], count: int) -> list[int]:
    if len(sizes) != count:
        raise ValueError(f"family {family!r} takes {count} integer parameter(s), got {len(sizes)}")
    return sizes


def _seed(args: argparse.Namespace) -> int:
    if args.seed is None:
        raise ValueError(f"{args.family} needs a seed")
    return args.seed


def _cmd_gen(args: argparse.Namespace) -> int:
    g = _generate(args)
    header = " ".join(["# ktdom gen", args.family, *args.params]) + "\n"
    _write_text(args.output, itertools.chain([header], edge_lines(g)))
    return 0


def _cmd_compute(args: argparse.Namespace) -> int:
    report = compute_invariants(_read_input(args.input), args.k, args.mode, with_oracle=args.oracle)
    return _write_report(args.report, report.to_dict(),
                         [f"oracle mismatch: {line}" for line in report.oracle_mismatches])


def _cmd_verify(args: argparse.Namespace) -> int:
    report = verify_all(_read_input(args.input), args.k)
    return _write_report(args.report, report.to_dict(),
                         [f"violated: {check.check_id}: {check.statement}" for check in report.violations])


def _instance_seed(master: int, index: int) -> int:
    return master * 1000003 + index


def _cmd_ensemble(args: argparse.Namespace) -> int:
    if args.count < 1:
        raise ValueError("count must be positive")
    if args.model == "gnp":
        if args.p is None:
            raise ValueError("gnp needs --p")
        make = lambda seed: gnp(args.n, args.p, seed)
    else:
        if args.r is None:
            raise ValueError("random-regular needs --r")
        make = lambda seed: random_regular(args.n, args.r, seed)
    _within_limit(args.n)
    if args.oracle:
        _check_oracle_cap(args.n)

    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    mismatches = 0
    counts = Counter()
    for index in range(args.count):
        seed = _instance_seed(args.seed, index)
        g = make(seed)
        report = verify_all(g, args.k)
        counts.update(report.status_counts())
        if args.oracle:
            lines = cross_check(g, report.invariants)
            mismatches += len(lines)
            for line in lines:
                print(f"oracle mismatch on instance {index}: {line}", file=sys.stderr)
        writer.writerow(_row(args, index, seed, report))
    _write_text(args.csv, buffer.getvalue().splitlines(keepends=True))
    print(f"ensemble: {args.count} instances, checks", *(f"{status}={n}" for status, n in counts.items()),
          file=sys.stderr)
    return 1 if counts[VIOLATED] or mismatches else 0


def _row(args: argparse.Namespace, index: int, seed: int, report: BoundsReport) -> list:
    def cell(value) -> object:
        return NA if value is None else value

    return [
        f"{args.model}-n{args.n}-{index:04d}",
        args.model,
        args.n,
        cell(args.p if args.model == "gnp" else None),
        cell(args.r if args.model == "random-regular" else None),
        seed,
        *[cell(getattr(report, name)) for name in _REPORT_COLUMNS],
        *[check.status for check in report.checks],  # in CHECK_IDS order, as CSV_COLUMNS are
    ]


if __name__ == "__main__":
    sys.exit(main())
