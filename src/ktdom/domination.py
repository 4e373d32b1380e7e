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

import re
from dataclasses import dataclass, fields, is_dataclass
from fractions import Fraction
from typing import Iterable

from .graphs import Graph, bit_list

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
    for c in covers:  # a loop, not all() over a generator, which costs twice as much per rejected mask
        if (c & mask).bit_count() < k:
            return False
    return True


def is_ktuple_dominating(g: Graph, s: Iterable[int], k: int) -> bool:
    """Uniform membership test: |N[v] & S| >= k for every vertex v."""
    _check_k(k)
    return _dominates(g.closed, vertex_mask(g, s), k)


def satisfies_by_cases(nbrs: tuple[int, ...], members: int, k: int, mode: str) -> bool:
    """The literal definition on open-neighbourhood masks (``g.adj``) and a
    member mask, shared by the references only.

    Closed mode: members need k-1 neighbours inside, non-members need k.
    Open mode: every vertex needs k neighbours inside.
    """
    for v, nv in enumerate(nbrs):
        need = k - 1 if mode == "closed" and members >> v & 1 else k
        if (nv & members).bit_count() < need:
            return False
    return True


def member_patterns(n: int) -> list[int]:
    """Bit S of the u-th pattern is set iff vertex u lies in member mask S,
    for every S below 2^n: runs of 2^u zeros and 2^u ones.  Built from the
    top: starting from the int of every mask, pattern u is pattern u + 1
    XOR itself shifted down by 2^u."""
    patterns = [0] * n
    pattern = (1 << (1 << n)) - 1
    for u in range(n - 1, -1, -1):
        pattern ^= pattern >> (1 << u)
        patterns[u] = pattern
    return patterns


def cases_table(nbrs: tuple[int, ...], k: int, mode: str, patterns: list[int]) -> int:
    """satisfies_by_cases on every member mask at once: bit S of the result
    is set iff satisfies_by_cases(nbrs, S, k, mode), for every S below 2^n.

    patterns is member_patterns(n).  For each v, at_least[j] collects the
    masks with at least j members among v's neighbours, counted one
    neighbour at a time and saturating at k; v passes a mask with k of them,
    or in closed mode with k - 1 when it is itself a member.  The table is
    the AND of the passes over v.
    """
    full = (1 << (1 << len(nbrs))) - 1
    table = full
    levels = range(k - 1, 0, -1)
    for v, nv in enumerate(nbrs):
        at_least = [full] + [0] * k
        for u in bit_list(nv):
            member = patterns[u]
            for j in levels:
                at_least[j + 1] |= at_least[j] & member
            at_least[1] |= member
        passes = at_least[k]
        if mode == "closed":
            passes |= at_least[k - 1] & patterns[v]
        table &= passes
    return table


def is_ktuple_dominating_by_cases(g: Graph, s: Iterable[int], k: int) -> bool:
    """Literal two-case definition, kept as an independent reference.

    Members need k-1 neighbours inside S, non-members need k.  Equivalent to
    is_ktuple_dominating; the test suite asserts that equivalence
    exhaustively on small graphs.
    """
    _check_k(k)
    return satisfies_by_cases(g.adj, vertex_mask(g, s), k, "closed")


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


def _smaller_set(g: Graph, k: int, mode: str, bound: int) -> tuple[int | None, int]:
    """Branch and bound for a k-tuple (total) dominating set of fewer than
    ``bound`` vertices, with gamma_xk's rules.

    Returns the smallest such set's mask, or None, and the number of nodes
    explored; every set found lowers the bound.  The vertices are taken in
    id order.

    The node state is kept up to date on each take and undo instead of
    recounted over all n vertices: each vertex's slack (its undecided cover
    vertices minus its demand), the number of negative slacks, the summed
    positive demand, the number of vertices at each demand level 1..k, and
    the mask of the vertices still demanding.  Covers are symmetric, so
    taking v costs every u in v's cover one demand and one undecided cover
    vertex, and no slack changes.  Only a backtrack moves slack: the
    vertices left out since the popped one are undecided again, which
    gives each vertex of their covers one slack back, and the popped vertex
    is left out, which gives its cover its demand back but not the vertex,
    so each vertex of that cover loses one.
    """
    covers = g.covers(mode)
    cover_bits = g.cover_lists(mode)
    n = g.n
    slack = [len(bits) - k for bits in cover_bits]
    short = 0  # negative slacks, each of which prunes; gamma_xk's degree gate leaves none at the root
    demand = [k] * n
    level = [0] * k + [n]  # level[d]: vertices of demand d, for d = 1..k; level[0] is never read
    total = k * n  # summed positive demand
    needy = (1 << n) - 1  # the vertices of positive demand

    best_mask = None
    nodes = 0
    # Leaving a vertex out is a node's last branch, so the stack holds only
    # the vertices taken.
    taken: list[int] = []  # ascending
    chosen = 0
    depth = 0  # the next vertex to decide
    while True:
        nodes += 1
        if not short:
            count = len(taken)
            if not total:
                if count < bound:
                    bound, best_mask = count, chosen
            else:
                worst = k
                while not level[worst]:
                    worst -= 1
                if count + worst < bound:
                    # the counting bound count + ceil(total / most) < bound, most the largest hit
                    # of an undecided vertex, holds once some hit reaches need; bound - count - 1
                    # >= worst >= 1, and every demanding vertex has an undecided vertex covering it
                    need = -(-total // (bound - count - 1))
                    for i in range(depth, n):
                        if (covers[i] & needy).bit_count() >= need:
                            break
                    else:
                        need = 0
                    if need:
                        v = depth
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
                        taken.append(v)
                        depth += 1
                        continue
        # a dead end: leave out the last vertex taken instead
        if not taken:
            return best_mask, nodes
        v = taken.pop()
        for i in range(v + 1, depth):
            for u in cover_bits[i]:
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
                total += 1
                level[d] += 1
                level[d - 1] -= 1
                if d == 1:
                    needy |= 1 << u
        chosen ^= 1 << v
        depth = v + 1


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
    serves gamma_xk alone; it runs on an explicit stack of the vertices
    taken, so its depth is not bounded by the recursion limit.
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


def _minimal_masks(g: Graph, k: int, mode: str) -> tuple[int, ...]:
    """The minimal k-tuple (total) dominating sets of g as ascending member
    masks, the one source of both oracles: cases_table marks the valid
    masks, and a valid mask is minimal when no mask one member smaller is
    valid, which n shifted ANDs of the table decide; one pass over the
    binary digits of the 2^n-bit result then reads them."""
    patterns = member_patterns(g.n)
    table = cases_table(g.adj, k, mode, patterns)
    minimal = table
    for u, pattern in enumerate(patterns):
        minimal &= ~(table << (1 << u) & pattern)  # drop each S whose S - {u} is valid
    digits = bin(minimal)[:1:-1]  # digit S is bit S; bit_list would rescan the int once per set bit
    return tuple([found.start() for found in re.finditer("1", digits)])


def gamma_oracle(g: Graph, k: int, mode: str = "closed") -> GammaResult:
    """Brute-force reference: every minimum set is minimal, so the answer is
    the least of _minimal_masks by size, then by sorted members, and
    nodes_explored counts them.  Independent of gamma_xk; hard error above
    the vertex cap."""
    check_degree_gate(g, k, mode)
    if g.n > ORACLE_VERTEX_CAP:
        raise OracleCapError(f"oracle refuses n={g.n} > cap={ORACLE_VERTEX_CAP}")
    masks = _minimal_masks(g, k, mode)
    best = min(masks, key=lambda mask: (mask.bit_count(), bit_list(mask)))
    return GammaResult(best.bit_count(), bit_list(best), mode, k, len(masks))


# ---------------------------------------------------------------------------
# exact-size decomposition


def _first_set(g: Graph, k: int, mode: str, t: int, banned: int = 0) -> int | None:
    """The mask of the first k-tuple (total) dominating set of exactly t
    vertices avoiding the banned mask that the search meets, or None when
    there is none.

    The search branches fail-first (Haralick and Elliott, 1980): at each
    node it picks the demanding vertex w of least slack (its undecided cover
    vertices minus its demand, ties to the lower id) and branches on each
    undecided u in w's cover in id order, taking u and leaving out the
    candidates tried before it.  Banned vertices are never undecided, so
    each slack starts from the unbanned cover vertices.  Three rules prune a
    node: a negative slack; a demand above the r vertices still to take (or
    fewer than r undecided vertices); and the counting bound, which asks
    some undecided vertex to cover at least ceil(D / r) demanding vertices,
    D the summed demand.  Once every demand is met, the lowest-id undecided
    vertices make up the size: a superset of a block is a block.

    Its node state is kept up to date on each take and undo, as in
    _smaller_set, instead of recounted over all n vertices: each vertex's
    slack, the number of negative slacks, the summed positive demand, the
    number of vertices at each demand level 1..k and the demanding mask.
    Taking u costs each vertex of u's cover one demand and one undecided
    cover vertex, so no slack changes; leaving u out costs each of them one
    slack.  The scans at a node walk only the set bits of the demanding and
    undecided masks, and the least-slack scan stops at the first slack 0,
    which no slack undercuts at a node that survives the first prune.
    """
    n = g.n
    covers = g.covers(mode)
    cover_bits = g.cover_lists(mode)
    free = ((1 << n) - 1) & ~banned  # the undecided vertices
    slack = [(c & free).bit_count() - k for c in covers]
    short = sum(1 for s in slack if s < 0)  # negative slacks, each of which prunes
    demand = [k] * n
    level = [0] * k + [n]  # level[d]: vertices of demand d, for d = 1..k; level[0] is never read
    total = k * n  # summed positive demand
    needy = (1 << n) - 1  # the vertices of positive demand
    chosen = 0
    # One frame per branching node: its candidates and the index of the one
    # taken now; the candidates before it are left out.
    frames: list[list] = []
    u = -1  # the vertex to take next, or -1 at a dead end
    while True:
        remaining = t - chosen.bit_count()
        if not short and free.bit_count() >= remaining:
            if not total:
                # every demand is met: the lowest-id undecided vertices make up the size
                for _ in range(remaining):
                    low = free & -free
                    chosen |= low
                    free ^= low
                return chosen
            worst = k
            while not level[worst]:
                worst -= 1
            if worst <= remaining:
                need = -(-total // remaining)
                if need > 1:
                    # the counting bound: some undecided vertex must cover need demanding ones
                    rest = free
                    while rest:
                        low = rest & -rest
                        if (covers[low.bit_length() - 1] & needy).bit_count() >= need:
                            break
                        rest ^= low
                    else:
                        need = 0
                if need:
                    w, least = -1, n  # every slack is below n
                    rest = needy
                    while rest:
                        low = rest & -rest
                        v = low.bit_length() - 1
                        s = slack[v]
                        if s < least:
                            w, least = v, s
                            if not s:
                                break
                        rest ^= low
                    cands = [v for v in cover_bits[w] if free >> v & 1]
                    frames.append([cands, 0])
                    u = cands[0]  # w's slack >= 0 leaves it at least its demand of candidates
        if u < 0:
            # a dead end: leave out the candidate taken last and take its next sibling
            while frames:
                frame = frames[-1]
                cands, i = frame
                v = cands[i]
                chosen ^= 1 << v
                for x in cover_bits[v]:
                    d = demand[x] + 1
                    demand[x] = d
                    if d > 0:
                        total += 1
                        level[d] += 1
                        level[d - 1] -= 1
                        if d == 1:
                            needy |= 1 << x
                    s = slack[x]
                    slack[x] = s - 1
                    if not s:
                        short += 1
                i += 1
                if i < len(cands) and not short:
                    frame[1] = i
                    u = cands[i]
                    break
                # every candidate left out, or too many: they are undecided again
                for v in cands[:i]:
                    free |= 1 << v
                    for x in cover_bits[v]:
                        s = slack[x] + 1
                        slack[x] = s
                        if not s:
                            short -= 1
                frames.pop()
            else:
                return None
        chosen |= 1 << u
        free ^= 1 << u
        for x in cover_bits[u]:
            d = demand[x]
            demand[x] = d - 1
            if d > 0:
                total -= 1
                level[d] -= 1
                level[d - 1] += 1
                if d == 1:
                    needy ^= 1 << x
        u = -1


def kjoin_decomposition_exists(g: Graph, k: int, t: int) -> tuple[int, ...] | None:
    """Witness T with |T| = t, min degree of G[T] >= k-1, and every outside
    vertex having >= k neighbours in T; None when no such T exists.

    These conditions say exactly that T is a k-tuple dominating set of
    cardinality t, so the smallest feasible t is the k-tuple domination
    number.  The search, _first_set in closed mode, is independent of
    gamma_xk: it branches fail-first, on the undecided closed neighbours of
    the demanding vertex of least slack, where gamma_xk takes or leaves the
    vertices in id order.
    """
    check_degree_gate(g, k, "closed")
    if not isinstance(t, int) or isinstance(t, bool):
        raise ValueError(f"t must be an integer, got {t!r}")
    if t < k - 1:
        raise ValueError(f"t must be at least k-1={k - 1}, got {t}")
    if t > g.n:
        raise ValueError(f"t={t} exceeds the vertex count {g.n}")
    found = _first_set(g, k, "closed", t)
    return None if found is None else bit_list(found)
