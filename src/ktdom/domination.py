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
from dataclasses import dataclass, fields, is_dataclass
from fractions import Fraction
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
    if not isinstance(k, int) or isinstance(k, bool) or k < 1:
        raise ValueError(f"k must be a positive integer, got {k!r}")


def check_degree_gate(g: Graph, k: int, mode: str) -> None:
    """Raise DegreeGateError when no admissible set can exist."""
    _check_k(k)
    _check_mode(mode)
    if g.min_degree < _needed_degree(k, mode):
        raise DegreeGateError(g.min_degree, k, mode)


def vertex_mask(g: Graph, vertices: Iterable[int]) -> int:
    """Bitmask of a vertex subset; rejects out-of-range ids and bools."""
    mask = 0
    for v in vertices:
        if not isinstance(v, int) or isinstance(v, bool) or not 0 <= v < g.n:
            raise ValueError(f"vertex {v!r} outside 0..{g.n - 1}")
        mask |= 1 << v
    return mask


# ---------------------------------------------------------------------------
# predicates


def _dominates(covers: Iterable[int], mask: int, k: int) -> bool:
    """The uniform test: every cover meets the vertex mask in at least k vertices."""
    return all((c & mask).bit_count() >= k for c in covers)


def is_ktuple_dominating(g: Graph, s: Iterable[int], k: int) -> bool:
    """Uniform membership test: |N[v] & S| >= k for every vertex v."""
    _check_k(k)
    return _dominates(g.closed, vertex_mask(g, s), k)


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
    members = set(iter_bits(vertex_mask(g, s)))
    nbrs = [set(g.neighbors(v)) for v in range(g.n)]
    return satisfies_by_cases(nbrs, members, k, "closed")


def is_ktuple_total_dominating(g: Graph, s: Iterable[int], k: int) -> bool:
    """Open-neighbourhood test: |N(v) & S| >= k for every vertex v."""
    _check_k(k)
    return _dominates(g.adj, vertex_mask(g, s), k)


# ---------------------------------------------------------------------------
# exact minimum


def _json_ready(value: object) -> object:
    """The JSON layout of every record: a dataclass becomes {field name: value},
    a tuple a list and a Fraction its str, nested values alike; anything else
    passes as is.  A value that must stay out of the JSON cannot be a field."""
    if is_dataclass(value):
        return {f.name: _json_ready(getattr(value, f.name)) for f in fields(value)}
    if isinstance(value, tuple):
        return [_json_ready(item) for item in value]
    if isinstance(value, Fraction):
        return str(value)
    return value


class _Record:
    """The base of every result record: to_dict writes its _json_ready layout."""

    __slots__ = ()

    def to_dict(self) -> dict:
        return _json_ready(self)


@dataclass(frozen=True, slots=True)
class GammaResult(_Record):
    """Minimum cardinality plus a witness set and search statistics."""

    value: int
    witness: tuple[int, ...]
    mode: str
    k: int
    nodes_explored: int


def _greedy_upper(g: Graph, k: int, mode: str) -> int:
    """Greedy feasible set: repeatedly add the vertex meeting the most unmet
    demand, ties broken by vertex id.  Returns a mask; only an upper bound.

    A vertex's gain, the demanding vertices in its cover, is kept up to date
    instead of recounted: covers are symmetric, so when u's demand is met
    every vertex in u's cover loses one.  A chosen vertex's gain is negative.
    """
    cover_bits = g.cover_lists(mode)
    demand = [k] * g.n
    gain = [len(bits) for bits in cover_bits]
    unmet = g.n
    chosen = 0
    while unmet:
        # the degree gate guarantees progress: V itself is feasible, so the best gain is positive
        best_v = gain.index(max(gain))
        chosen |= 1 << best_v
        gain[best_v] = -1
        for u in cover_bits[best_v]:
            demand[u] -= 1
            if demand[u] == 0:
                unmet -= 1
                for w in cover_bits[u]:
                    gain[w] -= 1
    return chosen


def _smaller_set(
    g: Graph, k: int, mode: str, bound: int, banned: int = 0, first: bool = False
) -> tuple[int | None, int]:
    """Branch and bound for a k-tuple (total) dominating set of fewer than
    ``bound`` vertices that avoids the ``banned`` mask, with gamma_xk's rules.

    Returns the smallest such set's mask, or None, and the number of nodes
    explored; every set found lowers the bound.  With ``first`` the search
    returns the first set it meets.  The vertices are taken in id order.

    The node state is kept up to date on each take and undo instead of
    recounted over all n vertices: each vertex's slack (its undecided cover
    vertices minus its demand), the number of negative slacks, the summed
    positive demand, the number of vertices at each demand level 1..k, and
    the mask of the vertices still demanding.  Covers are symmetric, so
    taking v costs every u in v's cover one demand and one undecided cover
    vertex, and no slack changes.  Only a backtrack moves slack: the
    positions left out since the popped one are undecided again, which
    gives each vertex of their covers one slack back, and the popped vertex
    is left out, which gives its cover its demand back but not the vertex,
    so each vertex of that cover loses one.
    """
    covers = g.covers(mode)
    cover_bits = g.cover_lists(mode)
    n = g.n
    order = [v for v in range(n) if not banned >> v & 1]
    last = len(order)
    ordered_covers = [covers[v] for v in order]
    free = ((1 << n) - 1) & ~banned
    slack = [(c & free).bit_count() - k for c in covers]
    short = sum(1 for s in slack if s < 0)  # a negative slack prunes the node
    demand = [k] * n
    level = [0] * k + [n]  # level[d]: vertices of demand d, for d = 1..k; level[0] is never read
    total = k * n  # summed positive demand
    needy = (1 << n) - 1  # the vertices of positive demand

    best_mask = None
    nodes = 0
    # Leaving a vertex out is a node's last branch, so the stack holds only
    # the depths at which a vertex was taken.
    taken: list[int] = []  # ascending
    chosen = 0
    depth = 0
    while True:
        nodes += 1
        if not short:
            count = len(taken)
            if not total:
                if count < bound:
                    bound, best_mask = count, chosen
                    if first:
                        return best_mask, nodes
            else:
                worst = k
                while not level[worst]:
                    worst -= 1
                if count + worst < bound:
                    # most >= 1: every demanding vertex has an undecided vertex covering it
                    most = 0
                    for i in range(depth, last):
                        hit = (ordered_covers[i] & needy).bit_count()
                        if hit > most:
                            most = hit
                    if count - (-total // most) < bound:
                        v = order[depth]
                        for u in cover_bits[v]:
                            d = demand[u]
                            demand[u] = d - 1
                            if d > 0:
                                total -= 1
                                level[d] -= 1
                                level[d - 1] += 1
                                if d == 1:
                                    needy ^= 1 << u
                        chosen |= 1 << v
                        taken.append(depth)
                        depth += 1
                        continue
        # a dead end: leave out the last vertex taken instead
        if not taken:
            return best_mask, nodes
        top = taken.pop()
        for i in range(top + 1, depth):
            for u in cover_bits[order[i]]:
                s = slack[u] + 1
                slack[u] = s
                if not s:
                    short -= 1
        v = order[top]
        for u in cover_bits[v]:
            s = slack[u]
            slack[u] = s - 1
            if not s:
                short += 1
            d = demand[u] + 1
            demand[u] = d
            if d > 0:
                total += 1
                level[d] += 1
                level[d - 1] -= 1
                if d == 1:
                    needy |= 1 << u
        chosen ^= 1 << v
        depth = top + 1


def gamma_xk(g: Graph, k: int, mode: str = "closed") -> GammaResult:
    """Exact minimum cardinality of a k-tuple (total) dominating set.

    Branch and bound over the vertices in id order, taking a vertex before
    leaving it out.  Each vertex v carries a residual demand (k minus its
    current in-set coverage).  Three rules prune a branch: some
    demand exceeds what the undecided vertices could still supply;
    |chosen| + the largest demand cannot beat the incumbent; or |chosen| +
    ceil(total demand / most) cannot, where most is the largest number of
    still-demanding vertices that one undecided vertex covers (the counting
    bound gamma >= ceil(kn / (Delta + 1)) applied to the residual instance).
    The incumbent starts from a greedy pass, so the reported value is exact
    even when the greedy set is already optimal.  The search, _smaller_set,
    is shared with d_xk's minimum-set rule; it runs on an explicit stack of
    the vertices taken, so its depth is not bounded by the recursion limit.
    A node costs what its move touches, not O(n): the search keeps each
    vertex's slack (undecided cover vertices minus demand), the number of
    negative slacks, the summed positive demand, the count at each demand
    level and the demanding mask up to date on each take and undo.  A take
    leaves every slack unchanged, since each vertex of the taken cover
    loses one demand and one undecided vertex; see _smaller_set.
    """
    check_degree_gate(g, k, mode)
    greedy = _greedy_upper(g, k, mode)
    best, nodes = _smaller_set(g, k, mode, greedy.bit_count())
    if best is None:
        best = greedy
    return GammaResult(best.bit_count(), bit_list(best), mode, k, nodes)


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

    Its node state is kept up to date on each take and undo, as in
    _smaller_set, instead of recounted over all n vertices: each vertex's
    slack (its undecided closed neighbours minus its demand), the number of
    negative slacks, and the number of vertices at each demand level 1..k.
    Taking v costs each of v's closed neighbours one demand and one
    undecided neighbour, so no slack changes; an undo gives the positions
    left out since the popped one back to their neighbours' slack and takes
    one from the popped vertex's neighbours.
    """
    check_degree_gate(g, k, "closed")
    if t < k - 1:
        raise ValueError(f"t must be at least k-1={k - 1}, got {t}")
    if t > g.n:
        raise ValueError(f"t={t} exceeds the vertex count {g.n}")
    n = g.n
    cover_bits = g.cover_lists("closed")
    slack = [len(bits) - k for bits in cover_bits]
    short = 0  # negative slacks, each of which prunes; the degree gate leaves none at the root
    demand = [k] * n
    level = [0] * k + [n]  # level[d]: vertices of demand d, for d = 1..k; level[0] is never read
    # Id-order branching, taking a vertex before leaving it out.  Leaving out
    # is a node's last branch, so the stack holds only the vertices taken.
    taken: list[int] = []  # ascending
    pos = 0
    while True:
        remaining = t - len(taken)
        if remaining == 0:
            if not any(level[1:]):
                return tuple(taken)
        # prune when some demand exceeds the vertices still to take or the undecided ones
        elif n - pos >= remaining and not short and not any(level[remaining + 1 :]):
            for u in cover_bits[pos]:
                d = demand[u]
                demand[u] = d - 1
                if d > 0:
                    level[d] -= 1
                    level[d - 1] += 1
            taken.append(pos)
            pos += 1
            continue
        # a dead end: leave out the last vertex taken instead
        if not taken:
            return None
        v = taken.pop()
        for w in range(v + 1, pos):
            for u in cover_bits[w]:
                s = slack[u] + 1
                slack[u] = s
                if not s:
                    short -= 1
        for u in cover_bits[v]:
            s = slack[u]
            slack[u] = s - 1
            if not s:
                short += 1
            d = demand[u] + 1
            demand[u] = d
            if d > 0:
                level[d] += 1
                level[d - 1] -= 1
        pos = v + 1
