"""Exact k-tuple domatic numbers: partition V into k-tuple dominating sets.

The closed-mode value is the largest number of classes in a partition of V
where every class is a k-tuple dominating set; open mode uses the total
variant.  Merging two classes of a valid partition keeps it valid (supersets
of valid sets stay valid), so feasibility is monotone downward in the class
count and a descending search can stop at the first feasible count.
"""

from __future__ import annotations

from dataclasses import dataclass

from .domination import (
    GammaResult,
    OracleCapError,
    _check_k,
    _check_mode,
    check_degree_gate,
    gamma_oracle,
    gamma_xk,
    is_ktuple_dominating,
    satisfies_by_cases,
    vertex_mask,
)
from .graphs import Graph

ORACLE_PARTITION_CAP = 10


@dataclass(frozen=True, slots=True)
class DomaticPartition:
    """Partition certificate: classes as sorted tuples, ordered by minimum."""

    classes: tuple[tuple[int, ...], ...]
    k: int
    mode: str

    def to_dict(self) -> dict:
        return {"k": self.k, "mode": self.mode, "classes": [list(c) for c in self.classes]}


@dataclass(frozen=True, slots=True)
class SearchBounds:
    """Bounds that framed a domatic search.

    zelinka_floor is the constructive lower bound floor(n / (k(n-delta)))
    in closed mode and the trivial 1 in open mode; degree_ceiling is
    floor((delta+1)/k) (closed) or floor(delta/k) (open); gamma_ceiling is
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

    def to_dict(self) -> dict:
        return {
            "zelinka_floor": self.zelinka_floor,
            "degree_ceiling": self.degree_ceiling,
            "gamma_ceiling": self.gamma_ceiling,
        }


@dataclass(frozen=True, slots=True)
class DomaticResult:
    value: int
    witness: DomaticPartition
    bounds_used: SearchBounds

    def to_dict(self) -> dict:
        return {
            "value": self.value,
            "witness": self.witness.to_dict(),
            "bounds_used": self.bounds_used.to_dict(),
        }


def is_domatic_partition(g: Graph, p: DomaticPartition) -> bool:
    """True iff p's classes partition V(g) and each passes the mode's test.

    Structural defects that cannot be meant (a vertex outside the graph, two
    classes sharing a vertex) raise ValueError; an incomplete cover or an
    empty class merely returns False.
    """
    _check_mode(p.mode)
    masks: list[int] = []
    union = 0
    for cls in p.classes:
        mask = vertex_mask(g, cls)
        if union & mask:
            raise ValueError("classes overlap")
        union |= mask
        masks.append(mask)
    if union != (1 << g.n) - 1 or not all(masks):
        return False
    _check_k(p.k)
    covers = g.covers(p.mode)
    return all((c & mask).bit_count() >= p.k for mask in masks for c in covers)


def degree_ceiling(g: Graph, k: int, mode: str) -> int:
    """floor((delta+1)/k) in closed mode, floor(delta/k) in open mode: a
    minimum-degree vertex splits its coverage among the classes, k each."""
    return (g.min_degree + 1) // k if mode == "closed" else g.min_degree // k


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
    return SearchBounds(floor, degree_ceiling(g, k, mode), g.n // gamma.value)


# ---------------------------------------------------------------------------
# exact maximum


def _find_partition(g: Graph, k: int, mode: str, num_classes: int, gamma: int) -> list[int] | None:
    """Colour V into num_classes k-tuple dominating classes, or return None.

    A vertex's cover is N[x] in closed mode and N(x) in open mode.  Per
    vertex x we track, against its cover, the per-class hit counts, the
    undecided coverage, and the deficit sum(max(0, k - hits)).
    The search is fail-first, as in DSATUR: it picks the vertex w with the
    least slack (undecided coverage minus deficit; ties go to the larger
    deficit, then the lower id), colours the lowest-id uncoloured vertex of
    w's cover, and tries first the classes still short at w, then the rest,
    each group in id order; nothing below the choice of w is scored.  A
    vertex joins an opened class or opens the next one, which kills class
    permutation symmetry; once every deficit is met the rest join class 0.

    Two rules prune.  Each undecided cover vertex repairs at most one unit
    of one class, so deficit > undecided fails.  Class c still needs
    max(gamma - |c|, max_x(k - hits of c at x), 0) members, where gamma is
    the minimum size of a k-tuple dominating set, so a sum of needs above
    the uncoloured count fails.  The search runs on an explicit stack.
    num_classes must not exceed the mode's degree_ceiling, so that every
    cover holds at least k * num_classes vertices.
    """
    n = g.n
    cover_bits = g.cover_lists(mode)
    color = [-1] * n
    counts = [[0] * num_classes for _ in range(n)]
    undecided = [len(bits) for bits in cover_bits]
    deficit = [k * num_classes] * n
    size = [0] * num_classes
    # level[c][h]: the vertices with exactly h < k hits of class c
    level = [[n] + [0] * (k - 1) for _ in range(num_classes)]
    need = [gamma] * num_classes  # an empty class needs gamma >= k members
    spare = n - sum(need)  # uncoloured vertices minus the summed class needs
    opened = 0

    def class_need(c: int) -> int:
        lc = level[c]
        h = 0
        while h < k and not lc[h]:
            h += 1
        return max(gamma - size[c], k - h)

    def assign(v: int, c: int) -> bool:
        nonlocal spare, opened
        color[v] = c
        size[c] += 1
        if c == opened:
            opened += 1
        ok = True
        lc = level[c]
        for u in cover_bits[v]:
            undecided[u] -= 1
            cu = counts[u]
            h = cu[c]
            cu[c] = h + 1
            if h < k:
                lc[h] -= 1
                if h + 1 < k:
                    lc[h + 1] += 1
                deficit[u] -= 1
            if deficit[u] > undecided[u]:
                ok = False
        was = need[c]
        need[c] = class_need(c)
        spare += was - need[c] - 1
        return ok and spare >= 0

    def unassign(v: int, c: int) -> None:
        nonlocal spare, opened
        color[v] = -1
        size[c] -= 1
        if not size[c]:
            opened = c
        lc = level[c]
        for u in cover_bits[v]:
            undecided[u] += 1
            cu = counts[u]
            h = cu[c] - 1
            cu[c] = h
            if h < k:
                lc[h] += 1
                if h + 1 < k:
                    lc[h + 1] -= 1
                deficit[u] += 1
        was = need[c]
        need[c] = class_need(c)
        spare += was - need[c] + 1

    stack: list[list] = []  # frames [vertex, classes in the order to try, next index]
    while True:
        # the tightest vertex w: least slack, then largest deficit, then lowest id
        w = -1
        w_slack = w_deficit = 0
        for x in range(n):
            dx = deficit[x]
            if dx:
                sx = undecided[x] - dx
                if w < 0 or sx < w_slack or (sx == w_slack and dx > w_deficit):
                    w, w_slack, w_deficit = x, sx, dx
        if w < 0:
            return [max(c, 0) for c in color]
        # colour the lowest-id uncoloured vertex of w's cover (0 < deficit <= undecided, so one
        # exists), trying the classes short at w first
        for v in cover_bits[w]:
            if color[v] < 0:
                break
        hits_w = counts[w]
        classes = range(min(opened + 1, num_classes))
        stack.append([v, [c for c in classes if hits_w[c] < k] + [c for c in classes if hits_w[c] >= k], 0])
        # try the next class of the top frame, backtracking over exhausted frames
        while stack:
            frame = stack[-1]
            v, order, i = frame
            if i:
                unassign(v, order[i - 1])
            if i == len(order):
                stack.pop()
                continue
            frame[2] = i + 1
            if assign(v, order[i]):
                break
        else:
            return None


def _classes_from_coloring(color: list[int], num_classes: int) -> tuple[tuple[int, ...], ...]:
    classes: list[list[int]] = [[] for _ in range(num_classes)]
    for v, c in enumerate(color):
        classes[c].append(v)
    return tuple([tuple(cls) for cls in classes])


def d_xk(g: Graph, k: int, mode: str = "closed", *, gamma: GammaResult | None = None) -> DomaticResult:
    """Exact k-tuple (total) domatic number with a witness partition.

    The search descends from bounds.ceiling, min(floor((delta+1)/k),
    floor(n / minimum set size)) (open mode: floor(delta/k) in place of the
    first term), to 2; the first feasible class count wins.  When no count
    of 2 or more is feasible the witness is the single class V.

    ``gamma`` may pass a precomputed gamma_xk(g, k, mode) result to avoid a
    second minimum solve; a result for another k or mode is a ValueError.
    """
    check_degree_gate(g, k, mode)
    if gamma is None:
        gamma = gamma_xk(g, k, mode)
    bounds = _search_bounds(g, k, mode, gamma)
    for count in range(bounds.ceiling, 1, -1):
        color = _find_partition(g, k, mode, count, gamma.value)
        if color is not None:
            witness = DomaticPartition(_classes_from_coloring(color, count), k, mode)
            return DomaticResult(count, witness, bounds)
    return DomaticResult(1, DomaticPartition((tuple(range(g.n)),), k, mode), bounds)


def d_oracle(g: Graph, k: int, mode: str = "closed", *, gamma: GammaResult | None = None) -> DomaticResult:
    """Brute-force reference: enumerate set partitions of V restricted to
    class counts 2..bounds.ceiling, keep the best valid one, else 1.

    The ceiling is the one d_xk starts from, with gamma_oracle's minimum in
    place of gamma_xk's; every valid partition has gamma * d <= n, so the
    cap never cuts off the answer.  Independent of d_xk: restricted-growth
    enumeration plus the literal case-split membership test on plain sets.
    Hard error above the cap.

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
    nbrs = [set(g.neighbors(v)) for v in range(n)]

    best_count = 1
    best_blocks = [list(range(n))]
    max_blocks = bounds.ceiling
    if max_blocks >= 2:
        blocks: list[list[int]] = []

        def rec(v: int) -> None:
            nonlocal best_count, best_blocks
            if min(max_blocks, len(blocks) + (n - v)) <= best_count:
                return
            if v == n:
                if len(blocks) > best_count and all(satisfies_by_cases(nbrs, set(b), k, mode) for b in blocks):
                    best_count = len(blocks)
                    best_blocks = [list(b) for b in blocks]
                return
            for b in blocks:
                b.append(v)
                rec(v + 1)
                b.pop()
            if len(blocks) < max_blocks:
                blocks.append([v])
                rec(v + 1)
                blocks.pop()

        try:
            rec(0)
        finally:
            del rec  # it refers to itself; drop that cycle instead of leaving it to the collector
    witness = DomaticPartition(tuple([tuple(b) for b in best_blocks]), k, mode)
    return DomaticResult(best_count, witness, bounds)


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
    n = g.n
    base = k * (n - g.min_degree)
    sizes = [base] * (count - 1) + [base + n - count * base]
    classes: list[tuple[int, ...]] = []
    start = 0
    for size in sizes:
        classes.append(tuple(range(start, start + size)))
        start += size
    for cls in classes:
        if not is_ktuple_dominating(g, cls, k):
            raise AssertionError("internal error: constructed block fails the membership test")
    return DomaticPartition(tuple(classes), k, "closed")
