"""Predicates and exact solvers for k-tuple dominating sets.

A vertex set S is k-tuple dominating (mode "closed") when every vertex of S
has at least k-1 neighbours in S and every vertex outside S has at least k
neighbours in S; this is equivalent to the uniform test |N[v] & S| >= k for
all v, which is what the fast paths use.  Mode "open" asks |N(v) & S| >= k
for all v instead (the total variant).  Existence gates: closed mode needs
min degree >= k-1, open mode needs min degree >= k.

Two consequences worth remembering when reading expected values elsewhere:
every nonempty k-tuple dominating set has at least k members (a member needs
k-1 neighbours inside), so the minimum is never k-1; and any superset of a
valid set is valid, so sets of every cardinality from the minimum up to n
exist.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable

from .graphs import Graph, bit_list, iter_bits

ORACLE_VERTEX_CAP = 20

MODES = ("closed", "open")


def _needed_degree(k: int, mode: str) -> int:
    """The minimum degree at which an admissible set exists: k-1 in closed
    mode (the whole vertex set then qualifies), k in open mode."""
    return k - 1 if mode == "closed" else k


class DegreeGateError(ValueError):
    """No admissible set exists for this (graph, k, mode)."""

    def __init__(self, delta: int, k: int, mode: str):
        kind = "k-tuple dominating" if mode == "closed" else "k-tuple total dominating"
        super().__init__(
            f"no {kind} set exists: minimum degree {delta} < {_needed_degree(k, mode)} (k={k}, mode={mode})"
        )
        self.delta = delta
        self.k = k
        self.mode = mode


class OracleCapError(ValueError):
    """A brute-force oracle was invoked above its vertex cap."""


def _check_mode(mode: str) -> None:
    if mode not in MODES:
        raise ValueError(f"mode must be 'closed' or 'open', got {mode!r}")


def _check_k(k: int) -> None:
    if not isinstance(k, int) or k < 1:
        raise ValueError(f"k must be a positive integer, got {k!r}")


def check_degree_gate(g: Graph, k: int, mode: str) -> None:
    """Raise DegreeGateError when no admissible set can exist."""
    _check_k(k)
    _check_mode(mode)
    if g.min_degree < _needed_degree(k, mode):
        raise DegreeGateError(g.min_degree, k, mode)


def covers_for(g: Graph, mode: str) -> tuple[int, ...]:
    """Per-vertex coverage masks: N[v] in closed mode, N(v) in open mode."""
    return g.closed if mode == "closed" else g.adj


def vertex_mask(g: Graph, vertices: Iterable[int]) -> int:
    """Bitmask of a vertex subset; rejects out-of-range ids."""
    mask = 0
    for v in vertices:
        if not (isinstance(v, int) and 0 <= v < g.n):
            raise ValueError(f"vertex {v!r} outside 0..{g.n - 1}")
        mask |= 1 << v
    return mask


# ---------------------------------------------------------------------------
# predicates


def is_ktuple_dominating(g: Graph, s: Iterable[int], k: int) -> bool:
    """Uniform membership test: |N[v] & S| >= k for every vertex v."""
    _check_k(k)
    mask = vertex_mask(g, s)
    return all((c & mask).bit_count() >= k for c in g.closed)


def satisfies_by_cases(nbrs: list[set[int]], members: set[int], k: int, mode: str) -> bool:
    """The literal definition on plain sets, shared by the references only.

    Closed mode: members need k-1 neighbours inside, non-members need k.
    Open mode: every vertex needs k neighbours inside.
    """
    for v, nv in enumerate(nbrs):
        need = k - 1 if mode == "closed" and v in members else k
        if len(nv & members) < need:
            return False
    return True


def is_ktuple_dominating_by_cases(g: Graph, s: Iterable[int], k: int) -> bool:
    """Literal two-case definition, kept as an independent reference.

    Members need k-1 neighbours inside S, non-members need k.  Equivalent to
    is_ktuple_dominating; the test suite asserts that equivalence
    exhaustively on small graphs.
    """
    _check_k(k)
    members = set()
    for v in s:
        if not (isinstance(v, int) and 0 <= v < g.n):
            raise ValueError(f"vertex {v!r} outside 0..{g.n - 1}")
        members.add(v)
    nbrs = [set(g.neighbors(v)) for v in range(g.n)]
    return satisfies_by_cases(nbrs, members, k, "closed")


def is_ktuple_total_dominating(g: Graph, s: Iterable[int], k: int) -> bool:
    """Open-neighbourhood test: |N(v) & S| >= k for every vertex v."""
    _check_k(k)
    mask = vertex_mask(g, s)
    return all((a & mask).bit_count() >= k for a in g.adj)


# ---------------------------------------------------------------------------
# exact minimum


@dataclass(frozen=True, slots=True)
class GammaResult:
    """Minimum cardinality plus a witness set and search statistics."""

    value: int
    witness: tuple[int, ...]
    mode: str
    k: int
    nodes_explored: int

    def to_dict(self) -> dict:
        return {
            "value": self.value,
            "witness": list(self.witness),
            "mode": self.mode,
            "k": self.k,
            "nodes_explored": self.nodes_explored,
        }


def _greedy_upper(g: Graph, k: int, covers: tuple[int, ...]) -> int:
    """Greedy feasible set: repeatedly add the vertex meeting the most unmet
    demand, ties broken by vertex id.  Returns a mask; only an upper bound."""
    n = g.n
    demand = [k] * n
    unmet = n
    chosen = 0
    cover_bits = [bit_list(c) for c in covers]
    while unmet:
        best_v = -1
        best_gain = 0
        for v in range(n):
            if chosen >> v & 1:
                continue
            gain = sum(1 for u in cover_bits[v] if demand[u] > 0)
            if gain > best_gain:
                best_v, best_gain = v, gain
        # the degree gate guarantees progress: V itself is feasible
        chosen |= 1 << best_v
        for u in cover_bits[best_v]:
            demand[u] -= 1
            if demand[u] == 0:
                unmet -= 1
    return chosen


def gamma_xk(g: Graph, k: int, mode: str = "closed") -> GammaResult:
    """Exact minimum cardinality of a k-tuple (total) dominating set.

    Branch and bound over vertices in ascending degree order.  Each vertex v
    carries a residual demand (k minus its current in-set coverage); a branch
    dies when some demand exceeds what the undecided vertices could still
    supply, or when |chosen| plus the largest demand cannot beat the
    incumbent.  The incumbent starts from a greedy pass, so the reported
    value is exact even when the greedy set is already optimal.
    """
    check_degree_gate(g, k, mode)
    covers = covers_for(g, mode)
    n = g.n
    order = sorted(range(n), key=lambda v: (g.deg[v], v))
    cover_bits = [bit_list(c) for c in covers]

    incumbent_mask = _greedy_upper(g, k, covers)
    best_size = incumbent_mask.bit_count()
    best_mask = incumbent_mask

    demand = [k] * n
    nodes = 0

    def explore(idx: int, chosen: int, count: int, undecided: int) -> None:
        nonlocal nodes, best_size, best_mask
        nodes += 1
        worst = 0
        for v in range(n):
            dv = demand[v]
            if dv > 0:
                if dv > (covers[v] & undecided).bit_count():
                    return
                if dv > worst:
                    worst = dv
        if worst == 0:
            if count < best_size:
                best_size, best_mask = count, chosen
            return
        if count + worst >= best_size:
            return
        v = order[idx]
        vbit = 1 << v
        rest = undecided ^ vbit
        for u in cover_bits[v]:
            demand[u] -= 1
        explore(idx + 1, chosen | vbit, count + 1, rest)
        for u in cover_bits[v]:
            demand[u] += 1
        explore(idx + 1, chosen, count, rest)

    try:
        explore(0, 0, 0, (1 << n) - 1)
    finally:
        del explore  # it refers to itself; drop that cycle instead of leaving it to the collector
    return GammaResult(best_size, bit_list(best_mask), mode, k, nodes)


def gamma_oracle(g: Graph, k: int, mode: str = "closed") -> GammaResult:
    """Brute-force reference: subsets by increasing cardinality, first hit wins.

    Independent of the branch-and-bound path: plain set arithmetic against
    the literal case-split definition.  Hard error above the vertex cap.
    """
    check_degree_gate(g, k, mode)
    if g.n > ORACLE_VERTEX_CAP:
        raise OracleCapError(f"oracle refuses n={g.n} > cap={ORACLE_VERTEX_CAP}")
    n = g.n
    nbrs = [set(g.neighbors(v)) for v in range(n)]
    checked = 0
    for size in range(n + 1):
        for combo in itertools.combinations(range(n), size):
            checked += 1
            if satisfies_by_cases(nbrs, set(combo), k, mode):
                return GammaResult(size, combo, mode, k, checked)
    raise AssertionError("unreachable: the degree gate guarantees V itself is feasible")


# ---------------------------------------------------------------------------
# exact-size decomposition


def kjoin_decomposition_exists(g: Graph, k: int, t: int) -> tuple[int, ...] | None:
    """Witness T with |T| = t, min degree of G[T] >= k-1, and every outside
    vertex having >= k neighbours in T; None when no such T exists.

    These conditions say exactly that T is a k-tuple dominating set of
    cardinality t, so the smallest feasible t is the k-tuple domination
    number.  The search is an id-order scan independent of gamma_xk.
    """
    check_degree_gate(g, k, "closed")
    if t < k - 1:
        raise ValueError(f"t must be at least k-1={k - 1}, got {t}")
    if t > g.n:
        raise ValueError(f"t={t} exceeds the vertex count {g.n}")
    n = g.n
    covers = g.closed
    cover_bits = [bit_list(c) for c in covers]
    demand = [k] * n
    full = (1 << n) - 1

    def dfs(pos: int, chosen: int, count: int) -> int | None:
        remaining = t - count
        if remaining == 0:
            return chosen if all(d <= 0 for d in demand) else None
        if n - pos < remaining:
            return None
        undecided = full >> pos << pos
        for u in range(n):
            du = demand[u]
            if du > remaining or du > (covers[u] & undecided).bit_count():
                return None
        for u in cover_bits[pos]:
            demand[u] -= 1
        found = dfs(pos + 1, chosen | (1 << pos), count + 1)
        for u in cover_bits[pos]:
            demand[u] += 1
        if found is not None:
            return found
        return dfs(pos + 1, chosen, count)

    try:
        mask = dfs(0, 0, 0)
    finally:
        del dfs  # it refers to itself; drop that cycle instead of leaving it to the collector
    return None if mask is None else bit_list(mask)


def kjoin_minimum_size(g: Graph, k: int) -> int:
    """Smallest t admitting an exact-size witness; equals gamma_xk's value
    whenever both are defined (asserted across the test suite)."""
    for t in range(max(0, k - 1), g.n + 1):
        if kjoin_decomposition_exists(g, k, t) is not None:
            return t
    raise AssertionError("unreachable: V itself is a valid witness at t=n")
