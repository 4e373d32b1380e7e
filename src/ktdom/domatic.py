"""Exact k-tuple domatic numbers: partition V into k-tuple dominating sets.

The closed-mode value is the largest number of classes in a partition of V
where every class is a k-tuple dominating set; open mode uses the total
variant.  Merging two classes of a valid partition keeps it valid (supersets
of valid sets stay valid), so feasibility is monotone downward in the class
count and a descending search can stop at the first feasible count.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb
from typing import Iterable, Sequence

from .domination import (
    GammaResult,
    OracleCapError,
    _check_k,
    _check_mode,
    _dominates,
    _first_set,
    _Record,
    check_degree_gate,
    gamma_oracle,
    gamma_xk,
    satisfies_by_cases,
    vertex_mask,
)
from .graphs import Graph, bit_list

ORACLE_PARTITION_CAP = 10

COVER_CAP = 20_000  # the most gamma-subsets listed for exact cover; above it the colouring search decides


@dataclass(frozen=True, slots=True)
class DomaticPartition(_Record):
    """Partition certificate: classes as sorted tuples, ordered by minimum,
    an order that _partition, the one builder of every solver's certificate,
    enforces."""

    classes: tuple[tuple[int, ...], ...]
    k: int
    mode: str


@dataclass(frozen=True, slots=True)
class SearchBounds(_Record):
    """Bounds that framed a domatic search.

    zelinka_floor is max(1, floor(n / (k(n-delta)))) in closed mode, the
    constructive lower bound raised to the trivial 1 when the raw floor is
    0, and 1 in open mode; it is only reported, and no search reads it.
    degree_ceiling is degree_ceiling(delta, k, mode); gamma_ceiling is
    floor(n / minimum set size), since gamma * d <= n.  ceiling, the
    smaller of the two ceilings, is where both d_xk and d_oracle start;
    to_dict() does not write it.
    """

    zelinka_floor: int
    degree_ceiling: int
    gamma_ceiling: int

    @property
    def ceiling(self) -> int:
        return min(self.degree_ceiling, self.gamma_ceiling)


@dataclass(frozen=True, slots=True)
class DomaticResult(_Record):
    value: int
    witness: DomaticPartition
    bounds_used: SearchBounds


def is_domatic_partition(g: Graph, p: DomaticPartition) -> bool:
    """True iff p's classes partition V(g) and each passes the mode's test.

    Structural defects that cannot be meant (a vertex outside the graph, two
    classes sharing a vertex) raise ValueError; an incomplete cover or an
    empty class merely returns False.
    """
    _check_mode(p.mode)
    masks = [vertex_mask(g, cls) for cls in p.classes]
    union = 0
    for mask in masks:
        if union & mask:
            raise ValueError("classes overlap")
        union |= mask
    if union != (1 << g.n) - 1 or not all(masks):
        return False
    _check_k(p.k)
    covers = g.covers(p.mode)
    return all(_dominates(covers, mask, p.k) for mask in masks)


def _partition(classes: Iterable[Sequence[int]], k: int, mode: str) -> DomaticPartition:
    """The certificate of a solver's classes, each an ascending vertex
    sequence: the classes are disjoint, so sorting orders them by minimum."""
    return DomaticPartition(tuple(sorted([tuple(cls) for cls in classes])), k, mode)


def degree_ceiling(delta: int, k: int, mode: str) -> int:
    """floor((delta+1)/k) in closed mode, floor(delta/k) in open mode, for
    minimum degree delta: a minimum-degree vertex splits its coverage among
    the classes, k each.  It is 0 exactly when no k-tuple (total)
    dominating set exists."""
    return (delta + 1) // k if mode == "closed" else delta // k


def zelinka_floor(g: Graph, k: int) -> int:
    """floor(n / (k(n-delta))), the closed-mode class count that
    zelinka_partition constructs; 0 when the bound says nothing."""
    return g.n // (k * (g.n - g.min_degree))


def _search_bounds(g: Graph, k: int, mode: str, gamma: GammaResult) -> SearchBounds:
    """The bounds framing a search, given its (exact or reference) minimum;
    a minimum for another k or mode is a ValueError."""
    if (gamma.k, gamma.mode) != (k, mode):
        raise ValueError(f"gamma result is for k={gamma.k}, mode={gamma.mode!r}, not k={k}, mode={mode!r}")
    floor = max(1, zelinka_floor(g, k)) if mode == "closed" else 1
    return SearchBounds(floor, degree_ceiling(g.min_degree, k, mode), g.n // gamma.value)


# ---------------------------------------------------------------------------
# exact maximum


def _find_partition(g: Graph, k: int, mode: str, num_classes: int, gamma: int) -> list[list[int]] | None:
    """Colour V into num_classes k-tuple dominating classes and return them
    as ascending vertex lists, or return None when no such colouring exists.

    A vertex's cover is N[x] in closed mode and N(x) in open mode.  Per
    vertex x we keep, against its cover, the per-class hit counts, the
    deficit sum(max(0, k - hits)) and the slack (uncoloured cover vertices
    minus deficit); per class, its size, its need (below) and, for each
    h < k, the number of vertices with at most h hits of it.
    The search is fail-first, as in DSATUR: it picks the vertex w with the
    least slack (ties go to the lower id), colours the lowest-id uncoloured
    vertex of w's cover, and tries first the classes still short at w, then
    the rest, each group in id order; nothing below the choice of w is
    scored.  A vertex joins an opened class or opens the next one, which
    kills class permutation symmetry; once every deficit is met the rest
    join class 0.

    Two rules prune.  Each uncoloured cover vertex repairs at most one unit
    of one class, so a negative slack fails.  Colouring v into c costs each
    x in v's cover one uncoloured vertex and, while c is short at x, one
    unit of deficit, so only a hit beyond k moves a slack.  Class c still
    needs max(gamma - |c|, max_x(k - hits of c at x), 0) members, where
    gamma is the minimum size of a k-tuple dominating set, so a sum of needs
    above the uncoloured count fails.  The state is updated in place on each
    colouring and undo, and the search runs on an explicit stack.
    num_classes must not exceed degree_ceiling(g.min_degree, k, mode), so
    that every slack starts at zero or more.
    """
    n = g.n
    cover_bits = g.cover_lists(mode)
    color = [-1] * n
    counts = [[0] * num_classes for _ in range(n)]
    deficit = [k * num_classes] * n
    slack = [len(bits) - k * num_classes for bits in cover_bits]
    size = [0] * num_classes
    # low[c][h]: the vertices with at most h < k hits of class c
    low = [[n] * k for _ in range(num_classes)]
    need = [gamma] * num_classes  # an empty class needs gamma >= k members
    spare = n - sum(need)  # uncoloured vertices minus the summed class needs
    opened = 0

    stack: list[list] = []  # frames [vertex, classes in the order to try, next index]
    while True:
        # the tightest vertex w: least slack, then lowest id
        w = -1
        w_slack = 0
        for x in range(n):
            if deficit[x]:
                sx = slack[x]
                if w < 0 or sx < w_slack:
                    w, w_slack = x, sx
        if w < 0:
            classes: list[list[int]] = [[] for _ in range(num_classes)]
            for v, c in enumerate(color):
                classes[max(c, 0)].append(v)
            return classes
        # colour the lowest-id uncoloured vertex of w's cover (it has deficit > 0 and slack >= 0, so
        # one exists), trying the classes short at w first
        for v in cover_bits[w]:
            if color[v] < 0:
                break
        hits_w = counts[w]
        classes = range(min(opened + 1, num_classes))
        order = [c for c in classes if hits_w[c] < k]
        if len(order) < len(classes):
            order += [c for c in classes if hits_w[c] >= k]
        stack.append([v, order, 0])
        # try the next class of the top frame, backtracking over exhausted frames
        while stack:
            frame = stack[-1]
            v, order, i = frame
            if i:  # undo v's colouring into the class tried last
                c = order[i - 1]
                color[v] = -1
                size[c] -= 1
                if not size[c]:
                    opened = c
                lc = low[c]
                for u in cover_bits[v]:
                    cu = counts[u]
                    h = cu[c] - 1
                    cu[c] = h
                    if h < k:
                        lc[h] += 1
                        deficit[u] += 1
                    else:
                        slack[u] += 1
                h = 0
                while h < k and not lc[h]:
                    h += 1
                was = need[c]
                need[c] = max(gamma - size[c], k - h)
                spare += was - need[c] + 1
            if i == len(order):
                stack.pop()
                continue
            frame[2] = i + 1
            c = order[i]
            color[v] = c
            size[c] += 1
            if c == opened:
                opened += 1
            ok = True
            lc = low[c]
            for u in cover_bits[v]:
                cu = counts[u]
                h = cu[c]
                cu[c] = h + 1
                if h < k:
                    lc[h] -= 1
                    deficit[u] -= 1
                else:
                    s = slack[u] - 1
                    slack[u] = s
                    if s < 0:
                        ok = False
            h = 0
            while h < k and not lc[h]:
                h += 1
            was = need[c]
            need[c] = max(gamma - size[c], k - h)
            spare += was - need[c] - 1
            if ok and spare >= 0:
                break
        else:
            return None


def _minimum_set_rule(
    g: Graph, k: int, mode: str, top: int, gamma: GammaResult
) -> tuple[int, list[tuple[int, ...]] | None]:
    """Settle class counts from the family of minimum sets.

    In a partition into c classes, each of at least gamma vertices and
    summing to n, at least m = c(gamma + 1) - n classes are minimum sets,
    pairwise disjoint.  A set H that meets every minimum set bounds such a
    packing by |H| (nu <= tau), so each c with m > |H| is infeasible.

    The family is explored once, at top, by searches for a minimum set
    avoiding a banned mask: _first_set at size gamma, the fail-first search
    that C11's exact-size probe runs, which returns the first such set it
    meets.  A greedy packing grows from the witness, up to m sets;
    top <= n // gamma makes m = top - s at slack s = n - top * gamma.  A full packing is a partition at slack 0, and at
    slack 1 when the gamma + 1 vertices it leaves form a valid class; those
    classes are returned.  Otherwise H takes the highest-degree vertex
    (then the lowest id) of each packed set and of each minimum set that
    still avoids it: m packed sets give |H| = m and refute nothing, and
    when no minimum set avoids H while |H| < m, every count above
    (n + |H|) // (gamma + 1) is refuted.  Returns the largest count left
    open and the slack-0 or slack-1 classes or None.
    """
    size, n = gamma.value, g.n
    want = top * (size + 1) - n
    if want < 2:  # |H| >= 1 refutes no m < 2, and at top = 1 the witness alone is no partition
        return top, None
    packing = [vertex_mask(g, gamma.witness)]
    used = packing[0]
    while len(packing) < want:
        found = _first_set(g, k, mode, size, used)
        if found is None:
            break
        packing.append(found)
        used |= found
    rest = ((1 << n) - 1) ^ used  # empty at slack 0, gamma + 1 vertices at slack 1
    if len(packing) == want and (not rest or top - want == 1 and _dominates(g.covers(mode), rest, k)):
        return top, [bit_list(mask) for mask in packing + [rest] if mask]

    hit = 0
    while hit.bit_count() < want:
        # the packed sets first: disjoint, so each adds a vertex
        found = packing.pop() if packing else _first_set(g, k, mode, size, hit)
        if found is None:
            return (n + hit.bit_count()) // (size + 1), None
        hit |= 1 << max(bit_list(found), key=g.deg.__getitem__)
    return top, None


def _minimum_sets(g: Graph, k: int, mode: str, size: int) -> list[int] | None:
    """Every k-tuple (total) dominating set of exactly size vertices as a
    mask, in lexicographic order, or None when more than COVER_CAP subsets
    would be tested.  Brute force over the size-subsets, each tested
    against the smallest covers first, which reject soonest."""
    if comb(g.n, size) > COVER_CAP:
        return None
    covers = sorted(g.covers(mode), key=int.bit_count)
    bits = [1 << v for v in range(g.n)]
    return [mask for mask in map(sum, combinations(bits, size)) if _dominates(covers, mask, k)]


def _exact_cover(g: Graph, k: int, mode: str, num_classes: int, family: list[int]) -> list[tuple[int, ...]] | None:
    """Partition V into num_classes classes built from the minimum sets and
    return them as ascending vertex tuples, or return None when no such
    partition exists.

    family lists the minimum sets (_minimum_sets, gamma vertices each), and
    the slack n - num_classes * gamma must be 0 or 1.  Every class has at
    least gamma vertices, so at slack 0 the classes are num_classes disjoint
    minimum sets, and at slack 1 they are num_classes - 1 of them plus one
    valid class of gamma + 1 vertices, the rest.  The search is Algorithm X
    (Knuth, Dancing Links): it places the unplaced vertex that lies in the
    fewest candidate sets, those disjoint from everything placed, into each
    of them in family order and then, while it has room, into the rest,
    which is tested when it fills.  The candidates are a mask over family
    indices, and each vertex holds the mask of the sets that contain it.
    The search runs on an explicit stack, as its depth can reach
    num_classes + gamma.
    """
    n = g.n
    size = family[0].bit_count()
    room = size + 1 if n - num_classes * size else 0  # the size of the rest
    covers = g.covers(mode)
    members = [bit_list(mask) for mask in family]
    holders = [0] * n  # holders[v]: the indices of the sets containing v
    for i, vertices in enumerate(members):
        for v in vertices:
            holders[v] |= 1 << i

    # nodes (unplaced vertices, rest, candidate sets, placed sets as nested (mask, parent) pairs)
    stack: list[tuple] = [((1 << n) - 1, 0, (1 << len(family)) - 1, None)]
    while stack:
        left, rest, alive, placed = stack.pop()
        if not left:
            if rest.bit_count() == room:
                classes = [rest] if rest else []
                while placed:
                    mask, placed = placed
                    classes.append(mask)
                return [bit_list(mask) for mask in classes]
            continue
        fewest = len(family) + 1
        for u in bit_list(left):
            count = (holders[u] & alive).bit_count()
            if count < fewest:
                v, fewest = u, count
                if not count:
                    break
        # pushed in reverse, so that the sets are popped in family order and the rest last
        if rest.bit_count() < room:
            grown = rest | 1 << v
            if grown.bit_count() < room or _dominates(covers, grown, k):
                stack.append((left ^ 1 << v, grown, alive & ~holders[v], placed))
        options = holders[v] & alive
        while options:
            i = options.bit_length() - 1
            options ^= 1 << i
            clash = 0
            for u in members[i]:
                clash |= holders[u]
            stack.append((left ^ family[i], rest, alive & ~clash, (family[i], placed)))
    return None


def d_xk(g: Graph, k: int, mode: str = "closed", *, gamma: GammaResult | None = None) -> DomaticResult:
    """Exact k-tuple (total) domatic number with a witness partition.

    The search descends from bounds.ceiling, min(degree_ceiling(delta, k,
    mode), floor(n / minimum set size)), to 2; the first feasible class
    count wins.  When no count of 2 or more is feasible the witness is the
    single class V.

    The minimum sets settle the top counts first (_minimum_set_rule): c
    classes on n vertices include at least m = c(gamma + 1) - n disjoint
    minimum sets, so a set H meeting every minimum set refutes each c with
    m > |H|, since a packing is never larger than a cover.  At a ceiling of
    slack 0 or 1 (n - ceiling * gamma), a greedy packing of m minimum sets
    plus, at slack 1, the valid class of the gamma + 1 vertices it leaves
    is the witness.  Below the rule, each count c >= 3 at slack <= 1 is
    decided by exact cover over the minimum sets (_exact_cover), which
    finds a partition or proves that none exists; the minimum sets are
    listed once, by brute force over the gamma-subsets, and a count whose
    listing would test more than COVER_CAP subsets stays with the colouring
    search, as do two-class counts and every count at slack 2 or more.

    ``gamma`` may pass a precomputed gamma_xk(g, k, mode) result to avoid a
    second minimum solve; a result for another k or mode is a ValueError.
    """
    check_degree_gate(g, k, mode)
    if gamma is None:
        gamma = gamma_xk(g, k, mode)
    bounds = _search_bounds(g, k, mode, gamma)
    size = gamma.value
    count, classes = _minimum_set_rule(g, k, mode, bounds.ceiling, gamma)
    family = None  # the minimum sets, listed at the first count that exact cover may decide
    while classes is None and count > 1:
        cover = count > 2 and g.n - count * size <= 1
        if cover and family is None:
            family = _minimum_sets(g, k, mode, size)
        if cover and family is not None:
            classes = _exact_cover(g, k, mode, count, family)
        else:
            classes = _find_partition(g, k, mode, count, size)
        if classes is None:
            count -= 1
    if classes is None:  # no count of 2 or more is feasible
        classes = [range(g.n)]
    return DomaticResult(count, _partition(classes, k, mode), bounds)


def d_oracle(g: Graph, k: int, mode: str = "closed", *, gamma: GammaResult | None = None) -> DomaticResult:
    """Brute-force reference: enumerate set partitions of V restricted to
    class counts 2..bounds.ceiling, keep the best valid one, else 1.

    The ceiling is the one d_xk starts from, with gamma_oracle's minimum in
    place of gamma_xk's; every valid partition has gamma * d <= n, so the
    cap never cuts off the answer.  Independent of d_xk: restricted-growth
    enumeration plus the literal case-split membership test on neighbourhood
    masks.  Blocks are vertex masks, each tested as it is, at most once per
    distinct mask.  Before placing vertex v, a block b whose b | {v..n-1}
    fails is dropped with its branch: every class grown from b lies inside
    that mask, and supersets of valid sets are valid, so none of them can
    pass.  Before that test, the class sizes prune: every valid class has
    at least gamma members, so a branch is dropped when filling its blocks
    up to gamma needs more than the n - v vertices left, or when the blocks
    plus (n - v - that need) // gamma new ones cannot beat the best count.
    Only branches without a valid partition of more classes than the best
    are cut, so the first best partition in restricted-growth order is
    still the one returned.  Hard error above the cap.

    ``gamma`` may pass a precomputed gamma_oracle(g, k, mode) result to
    avoid a second minimum solve; a result for another k or mode is a
    ValueError, as in d_xk.
    """
    check_degree_gate(g, k, mode)
    if g.n > ORACLE_PARTITION_CAP:
        raise OracleCapError(f"oracle refuses n={g.n} > cap={ORACLE_PARTITION_CAP}")
    n = g.n
    if gamma is None:
        gamma = gamma_oracle(g, k, mode)
    bounds = _search_bounds(g, k, mode, gamma)
    best = [(1 << n) - 1]  # the best partition so far, as block masks
    max_blocks = bounds.ceiling
    size = gamma.value  # every valid class has at least this many members
    blocks: list[int] = []  # vertex masks, in restricted-growth order
    passes: dict[int, bool] = {}  # the literal test, once per mask

    def rec(v: int, short: int) -> None:
        """Place vertices v..n-1; the blocks lack ``short`` members in all to reach size."""
        nonlocal best
        spare = n - v - short  # each new block takes size of these
        if spare < 0 or min(max_blocks, len(blocks) + spare // size) <= len(best):
            return
        rest = (1 << n) - (1 << v)  # the vertices still to place
        for b in blocks:
            mask = b | rest
            ok = passes.get(mask)
            if ok is None:
                ok = passes[mask] = satisfies_by_cases(g.adj, mask, k, mode)
            if not ok:
                return
        if v == n:  # rest is empty, so every block passed the test as it stands
            best = blocks.copy()
            return
        bit = 1 << v
        for i in range(len(blocks)):
            blocks[i] |= bit
            rec(v + 1, short - (blocks[i].bit_count() <= size))
            blocks[i] ^= bit
        if len(blocks) < max_blocks:
            blocks.append(bit)
            rec(v + 1, short + size - 1)
            blocks.pop()

    try:
        rec(0, 0)
    finally:
        del rec  # it refers to itself; drop that cycle instead of leaving it to the collector
    return DomaticResult(len(best), _partition([bit_list(b) for b in best], k, mode), bounds)


def zelinka_partition(g: Graph, k: int) -> DomaticPartition | None:
    """Constructive partition showing d >= floor(n / (k(n-delta))).

    Any vertex set with at least k(n-delta) members is a k-tuple dominating
    set (n - |S| <= delta - k + 1 leaves every vertex enough in-set
    coverage), so chopping 0..n-1 in id order into floor(n / (k(n-delta)))
    consecutive blocks, the last absorbing the remainder, is a valid
    partition.  Returns None when k(n-delta) > n, where the floor is 0 and
    the bound says nothing; every block is re-verified before returning.
    """
    check_degree_gate(g, k, "closed")
    count = zelinka_floor(g, k)
    if count == 0:
        return None
    base = k * (g.n - g.min_degree)
    cuts = [*range(0, count * base, base), g.n]
    blocks = [range(start, stop) for start, stop in zip(cuts, cuts[1:])]
    if not all(_dominates(g.closed, (1 << b.stop) - (1 << b.start), k) for b in blocks):
        raise AssertionError("internal error: constructed block fails the membership test")
    return _partition(blocks, k, "closed")
