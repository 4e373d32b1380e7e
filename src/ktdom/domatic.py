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
    _minimal_masks,
    _Record,
    check_degree_gate,
    gamma_xk,
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
    """The two ceilings that framed a domatic search.

    degree_ceiling is degree_ceiling(delta, k, mode); gamma_ceiling is
    floor(n / minimum set size), since gamma * d <= n.  ceiling, the
    smaller of the two, is where both d_xk and d_oracle start; to_dict()
    does not write it.
    """

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

    Structural defects that cannot be meant (a vertex outside the graph, a
    class listing a vertex twice, two classes sharing a vertex) raise
    ValueError; an incomplete cover or an empty class merely returns False.
    """
    _check_mode(p.mode)
    _check_k(p.k)
    masks = [vertex_mask(g, cls) for cls in p.classes]
    union = 0
    for cls, mask in zip(p.classes, masks):
        if len(cls) != mask.bit_count():
            raise ValueError("a class lists a vertex twice")
        if union & mask:
            raise ValueError("classes overlap")
        union |= mask
    if union != (1 << g.n) - 1 or not all(masks):
        return False
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


def _search_bounds(g: Graph, k: int, mode: str, size: int) -> SearchBounds:
    """The ceilings framing a search, given its (exact or reference) minimum set size."""
    return SearchBounds(degree_ceiling(g.min_degree, k, mode), g.n // size)


# ---------------------------------------------------------------------------
# exact maximum


def _find_partition(g: Graph, k: int, mode: str, num_classes: int, gamma: int) -> list[tuple[int, ...]] | None:
    """Colour V into num_classes k-tuple dominating classes and return them
    as ascending vertex tuples, or return None when no such colouring exists.

    A vertex's cover is N[x] in closed mode and N(x) in open mode.  Each
    hit count is kept once, as a level: for each h < k and class c,
    low[h][c] is the mask of vertices with at most h hits of c in their
    cover, so x is short of c while it lies in low[k - 1][c].  Per class
    we also keep its member mask and its need (below); per vertex x, its
    slack, the uncoloured vertices of x's cover minus the hits x still
    lacks over all classes; and the mask of vertices of slack 0.
    The search is fail-first, as in DSATUR: among the vertices short of some
    class it picks w with the least slack (ties go to the lower id), colours
    the lowest-id uncoloured vertex of w's cover, and tries first the
    classes w is short of, then the rest, each group in id order; nothing
    below the choice of w is scored.  A vertex joins an opened class or
    opens the next one, which kills class permutation symmetry; once no
    vertex is short the uncoloured rest join class 0.

    Colouring v into c lifts each vertex of v's cover one hit level of c:
    on that cover, low[h][c] takes what low[h - 1][c] held.  Each vertex of
    the cover loses an uncoloured vertex; those that c already meets lose
    one slack with it, and the rest lack one hit fewer.  An undo shifts the
    levels back and returns the slack.  Two rules prune, and both are
    tested before a move, which is refused instead of made and undone, so
    every colouring made keeps both.  Each uncoloured cover vertex repairs
    at most one hit of one class, so a negative slack fails: the move
    fails exactly when v's cover holds a vertex of slack 0 that c already
    meets.  Class c still needs max(gamma - |c|, max_x(k - hits of c at x),
    0) members, where gamma is the minimum size of a k-tuple dominating
    set, so a sum of needs above the uncoloured count fails.  A colouring
    never raises a need, so the spare count (uncoloured vertices minus
    summed needs) falls by at most 1, and only at spare 0 can the move
    fail: exactly when c's need is 0, or is k - h for the lowest hit level
    h of c and some vertex at level h lies outside v's cover.  The search
    runs on an explicit stack.
    num_classes must not exceed degree_ceiling(g.min_degree, k, mode), so
    that every slack starts at zero or more.
    """
    n = g.n
    covers = g.covers(mode)
    cover_bits = g.cover_lists(mode)
    free = (1 << n) - 1  # the uncoloured vertices
    members = [0] * num_classes
    slack = [cover.bit_count() - k * num_classes for cover in covers]
    tight = sum([1 << x for x, s in enumerate(slack) if not s])  # the vertices of slack 0
    low = [[free] * num_classes for _ in range(k)]
    unmet = low[-1]  # unmet[c]: the vertices short of class c
    need = [gamma] * num_classes  # an empty class needs gamma >= k members
    spare = n - sum(need)  # uncoloured vertices minus the summed class needs
    opened = 0

    stack: list[list] = []  # frames [vertex, classes in the order to try, next index, met cover vertices]
    while True:
        # the vertices short of some class: all of them while a class is empty
        if opened < num_classes:
            short = unmet[opened]
        else:
            short = 0
            for mask in unmet:
                short |= mask
        if not short:
            members[0] |= free
            return [bit_list(mask) for mask in members]
        # the tightest vertex w: least slack, then lowest id
        w = short & tight
        if w:
            w = (w & -w).bit_length() - 1
        else:
            w_slack = n
            for x, s in enumerate(slack):
                if s < w_slack and short >> x & 1:
                    w, w_slack = x, s
        # colour the lowest-id uncoloured vertex of w's cover (w is short and its slack is >= 0, so
        # one exists), trying the classes w is short of first
        v = covers[w] & free
        v = (v & -v).bit_length() - 1
        classes = range(min(opened + 1, num_classes))
        order = [c for c in classes if unmet[c] >> w & 1]
        if len(order) < len(classes):
            order += [c for c in classes if not unmet[c] >> w & 1]
        stack.append([v, order, 0, 0])
        # colour v of the top frame into its next class that passes both prunes, backtracking over
        # exhausted frames
        while stack:
            frame = stack[-1]
            v, order, i, met = frame
            cover = covers[v]
            if i:  # undo v's colouring into the class tried last
                c = order[i - 1]
                free |= 1 << v
                members[c] ^= 1 << v
                if not members[c]:
                    opened = c
                for h in range(k - 1):
                    low[h][c] = low[h][c] & ~cover | low[h + 1][c] & cover
                unmet[c] |= cover & ~met
                for u in cover_bits[v]:
                    if met >> u & 1:
                        slack[u] += 1
                tight &= ~met
                h = 0
                while h < k and not low[h][c]:
                    h += 1
                was = need[c]
                need[c] = max(gamma - members[c].bit_count(), k - h)
                spare += was - need[c] + 1
            while i < len(order):
                c = order[i]
                i += 1
                met = cover & ~unmet[c]
                if met & tight:
                    continue  # a met vertex of slack 0 in v's cover would go negative
                if not spare:  # the move lowers spare by 1 unless c's need falls
                    d = need[c]
                    # d >= k - h for c's lowest hit level h, so low[k - d][c] is nonempty only at
                    # h = k - d, and then a vertex of it outside v's cover holds the need at d
                    if not d or d <= k and low[k - d][c] & ~cover:
                        continue
                break
            else:
                stack.pop()
                continue
            frame[2] = i
            frame[3] = met
            free ^= 1 << v
            members[c] |= 1 << v
            if c == opened:
                opened += 1
            for h in range(k - 1, 0, -1):
                low[h][c] = low[h][c] & ~cover | low[h - 1][c] & cover
            low[0][c] &= ~cover
            for u in cover_bits[v]:
                if met >> u & 1:
                    s = slack[u] - 1
                    slack[u] = s
                    if not s:
                        tight |= 1 << u
            h = 0
            while h < k and not low[h][c]:
                h += 1
            was = need[c]
            need[c] = max(gamma - members[c].bit_count(), k - h)
            spare += was - need[c] - 1
            break
        else:
            return None


def _minimum_set_rule(
    g: Graph, k: int, mode: str, top: int, size: int, witness: int
) -> tuple[int, list[tuple[int, ...]] | None]:
    """Settle class counts from the family of minimum sets.

    In a partition into c classes, each of at least gamma = size vertices and
    summing to n, at least m = c(gamma + 1) - n classes are minimum sets,
    pairwise disjoint.  A set H that meets every minimum set bounds such a
    packing by |H| (nu <= tau), so each c with m > |H| is infeasible.

    The family is explored once, at top, by searches for a minimum set
    avoiding a banned mask: _first_set at size gamma, the fail-first search
    that C11's exact-size probe runs, which returns the first such set it
    meets.  A greedy packing grows from the witness mask, up to m sets;
    top <= n // gamma makes m = top - s at slack s = n - top * gamma.  A full packing is a partition at slack 0, and at
    slack 1 when the gamma + 1 vertices it leaves form a valid class; those
    classes are returned.  Otherwise H takes the highest-degree vertex
    (then the lowest id) of each packed set and of each minimum set that
    still avoids it: m packed sets give |H| = m and refute nothing, and
    when no minimum set avoids H while |H| < m, every count above
    (n + |H|) // (gamma + 1) is refuted.  Returns the largest count left
    open and the slack-0 or slack-1 classes or None.
    """
    n = g.n
    want = top * (size + 1) - n
    if want < 2:  # |H| >= 1 refutes no m < 2, and at top = 1 the witness alone is no partition
        return top, None
    packing = [witness]
    used = witness
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
    second minimum solve; one for another k or mode is a ValueError, as is
    a witness, passed or solved, that is no valid set of gamma.value members.
    """
    check_degree_gate(g, k, mode)
    if gamma is None:
        gamma = gamma_xk(g, k, mode)
    elif (gamma.k, gamma.mode) != (k, mode):
        raise ValueError(f"gamma result is for k={gamma.k}, mode={gamma.mode!r}, not k={k}, mode={mode!r}")
    size = gamma.value
    witness = vertex_mask(g, gamma.witness)
    if witness.bit_count() != size or not _dominates(g.covers(mode), witness, k):
        raise ValueError(f"gamma witness {gamma.witness} is not a valid set of {size} vertices of g")
    bounds = _search_bounds(g, k, mode, size)
    count, classes = _minimum_set_rule(g, k, mode, bounds.ceiling, size, witness)
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


def _max_packing(by_low: list[list[int]], v: int, used: int, packed: list[int], best: list[int], size: int,
                 top: int) -> None:
    """Extend packed, pairwise disjoint masks covering used, by masks of
    by_low whose lowest vertex is v or above, and copy into best each
    packing longer than it, until best holds top masks.

    by_low[u] lists the minimal valid masks of lowest vertex u.  At the
    lowest unused vertex from v on, each of its masks disjoint from used is
    tried in turn, then the vertex is left out.  Every valid mask has at
    least size members, so a branch is cut when the packed masks plus the
    unused vertices from v on divided by size cannot beat best.
    """
    if len(packed) > len(best):
        best[:] = packed
        if len(best) == top:
            return
    n = len(by_low)
    while v < n and used >> v & 1:
        v += 1
    if len(packed) + (n - v - (used >> v).bit_count()) // size <= len(best):
        return
    for mask in by_low[v]:
        if not mask & used:
            packed.append(mask)
            _max_packing(by_low, v + 1, used | mask, packed, best, size, top)
            packed.pop()
            if len(best) == top:
                return
    _max_packing(by_low, v + 1, used, packed, best, size, top)


def d_oracle(g: Graph, k: int, mode: str = "closed") -> DomaticResult:
    """Brute-force reference: the most pairwise disjoint minimal valid
    sets, up to bounds.ceiling, else 1.

    Supersets of valid sets are valid, so the classes of a valid partition
    hold disjoint minimal valid sets, and disjoint minimal valid sets plus
    the vertices they leave, joined to one of them, are a valid partition:
    d is the largest such packing.  The ceiling is the one d_xk starts from,
    with the least size of a minimal valid set as the minimum; every valid
    partition has gamma * d <= n, so the cap never cuts off the answer.
    Independent of d_xk and of gamma_oracle: the minimal valid sets come
    from _minimal_masks, and a depth-first search by lowest vertex
    (_max_packing) finds the largest packing, stopping at the ceiling.
    The vertices that the packing leaves join its first class.  Hard error
    above the cap.
    """
    check_degree_gate(g, k, mode)
    if g.n > ORACLE_PARTITION_CAP:
        raise OracleCapError(f"oracle refuses n={g.n} > cap={ORACLE_PARTITION_CAP}")
    n = g.n
    masks = _minimal_masks(g, k, mode)
    size = min(map(int.bit_count, masks))
    bounds = _search_bounds(g, k, mode, size)
    full = (1 << n) - 1
    best = [full]  # the best packing so far, at first the single class V
    if bounds.ceiling > 1:
        by_low: list[list[int]] = [[] for _ in range(n)]
        for mask in masks:
            by_low[(mask & -mask).bit_length() - 1].append(mask)
        _max_packing(by_low, 0, 0, [], best, size, bounds.ceiling)
        best[0] |= full - sum(best)
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
