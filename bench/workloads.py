"""Instance sets of the benchmark workloads.

Every workload is a fixed list of ``Instance`` records plus a per-instance
wall budget; the library receives nothing but the finished ``Graph`` objects.
The two ensembles draw their graphs with the ``ktdom ensemble`` seed rule
``s * 1000003 + i`` from the fixed ensemble seed ``ENSEMBLE_SEED``; the two
ladders are fixed families whose expected values sit in ``reference.json``.
The benchmark seed sets the order in which each pass visits the instances
(see run.py) and changes no instance.  Drawing the ensembles from the
benchmark seed made the work itself differ between seeds by a quartile
spread of 0.15 in total time and 0.2 in p99 latency on ``ensemble-small``,
before any timing noise, and would let a ladder instance drift towards the
budget from one seed to the next.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

# op names: what the timed call does with (graph, k)
VERIFY = "verify"  # bounds.verify_all(g, k)
COMPUTE = "compute"  # reports.compute_invariants(g, k, "both")
ORACLE = "verify+oracle"  # verify_all, then compute_invariants(..., with_oracle=True)

ENSEMBLE_SEED = 1

WHY = {
    "ensemble-small": "shallow searches on 400 small G(n,p): per-call fixed costs (graph build, greedy, C11 scan, "
    "complement, bookkeeping) dominate",
    "gamma-sparse": "cycles, paths and 3-regular graphs through compute: gamma_xk branch and bound does most of the "
    "work while d stays at its small ceiling",
    "domatic-dense": "dense G(n,p) and cycles through verify under a 3 s budget: the d_xk descent and the complement "
    "solve do the work; some instances exhaust the budget",
    "ensemble-oracle": "small G(n,p) through verify and compute with the brute-force oracles, the only place the "
    "oracles run and each invariant is solved twice",
}


@dataclass(frozen=True)
class Instance:
    name: str
    build: Callable  # (ktdom module) -> Graph
    k: int
    op: str


@dataclass(frozen=True)
class Workload:
    name: str
    instances: tuple[Instance, ...]
    budget_s: float


def _gnp(n: int, p: float, seed: int) -> Callable:
    return lambda kt: kt.gnp(n, p, seed)


def _family(family: str, *args: int) -> Callable:
    return lambda kt: getattr(kt, family)(*args)


def _ensemble(count: int, ns: tuple[int, ...], ks: tuple[int, ...], op: str) -> tuple[Instance, ...]:
    """Stratified sweep: instance i cycles through n, then p, then k."""
    ps = (0.3, 0.5, 0.7)
    out = []
    for i in range(count):
        n = ns[i % len(ns)]
        p = ps[i // len(ns) % len(ps)]
        k = ks[i // (len(ns) * len(ps)) % len(ks)]
        graph_seed = ENSEMBLE_SEED * 1000003 + i
        out.append(Instance(f"gnp({n},{p},{graph_seed}) k={k}", _gnp(n, p, graph_seed), k, op))
    return tuple(out)


def _ladder(entries: list[tuple[str, Callable, int]], op: str) -> tuple[Instance, ...]:
    return tuple(Instance(name, build, k, op) for name, build, k in entries)


def _cycles(ns, k):
    return [(f"C{n} k={k}", _family("cycle", n), k) for n in ns]


def _paths(ns, k):
    return [(f"P{n} k={k}", _family("path", n), k) for n in ns]


def _dense(specs):
    return [(f"gnp({n},{p},7) k={k}", _gnp(n, p, 7), k) for n, p, k in specs]


def _regular3(specs):
    return [(f"rr3({n},{s}) k=1", _family("random_regular", n, 3, s), 1) for n, s in specs]


def build_workload(name: str, tiny: bool = False) -> Workload:
    """The named workload; ``tiny`` shrinks it for the smoke test."""
    if name == "ensemble-small":
        count = 30 if tiny else 400
        return Workload(name, _ensemble(count, (9, 10, 11, 12, 13), (1, 2, 3), VERIFY), 10.0)
    if name == "ensemble-oracle":
        # n stops at 9: at n = 10 the partition oracle alone takes three
        # quarters of the time and a few instances dominate every pass
        count = 24 if tiny else 600
        return Workload(name, _ensemble(count, (6, 7, 8, 9), (1, 2), ORACLE), 10.0)
    if name == "gamma-sparse":
        if tiny:
            entries = _cycles((12,), 1) + _paths((10,), 1) + _cycles((12,), 2) + _regular3([(12, 1)])
        else:
            entries = (
                _cycles((21, 24, 27, 30, 33), 1)
                + _paths((17, 20, 23, 26, 29), 1)
                + _cycles((24, 28, 32), 2)
                + _regular3([(24, 1), (24, 2), (24, 3)])
            )
        return Workload(name, _ladder(entries, COMPUTE), 15.0)
    if name == "domatic-dense":
        if tiny:
            entries = _cycles((9,), 1) + _dense([(10, 0.8, 1), (10, 0.8, 2)])
        else:
            # decided instances finish in under 1.3 s and exhausted ones need
            # over 15 s on the seed code, so none sits near the 3 s budget;
            # C14 and C15 (about 2 s) would, and are left out
            entries = _cycles((12, 13, 16, 17), 1) + _dense([
                (14, 0.7, 2), (14, 0.8, 1), (14, 0.8, 2), (14, 0.9, 2),
                (16, 0.7, 1), (16, 0.7, 2), (16, 0.8, 2), (16, 0.9, 1),
                (18, 0.8, 2), (20, 0.7, 2), (20, 0.9, 2), (22, 0.7, 2),
            ])
        return Workload(name, _ladder(entries, VERIFY), 3.0)
    raise ValueError(f"unknown workload {name!r}, expected one of {', '.join(WHY)}")
