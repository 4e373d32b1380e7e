"""Test-only reference for d_xk: the id-order backtracking colouring.

This is the search d_xk ran before it branched fail-first.  Vertices are
coloured in id order, vertex 0 sits in class 0 and a new class may only be
opened in ascending order; the only prune is a vertex whose deficit
sum(max(0, k - hits)) exceeds its undecided coverage.  It shares no
branching rule and no class-need prune with d_xk, so the two agreeing
beyond the partition oracle's vertex cap checks the value independently.
"""

from __future__ import annotations

from ktdom import Graph, check_degree_gate, gamma_xk
from ktdom.domatic import _search_bounds


def id_order_partition(g: Graph, k: int, mode: str, num_classes: int) -> list[int] | None:
    """A colouring into num_classes k-tuple dominating classes, or None;
    num_classes must not exceed degree_ceiling(g, k, mode)."""
    n = g.n
    cover_bits = g.cover_lists(mode)
    color = [-1] * n
    counts = [[0] * num_classes for _ in range(n)]
    undecided = [len(bits) for bits in cover_bits]
    deficit = [k * num_classes] * n

    def assign(v: int, c: int) -> bool:
        ok = True
        for u in cover_bits[v]:
            undecided[u] -= 1
            cu = counts[u]
            if cu[c] < k:
                deficit[u] -= 1
            cu[c] += 1
            if deficit[u] > undecided[u]:
                ok = False
        return ok

    def unassign(v: int, c: int) -> None:
        for u in cover_bits[v]:
            cu = counts[u]
            cu[c] -= 1
            if cu[c] < k:
                deficit[u] += 1
            undecided[u] += 1

    def dfs(v: int, opened: int) -> bool:
        if v == n:
            return True
        for c in range(min(opened + 1, num_classes)):
            color[v] = c
            if assign(v, c) and dfs(v + 1, max(opened, c + 1)):
                return True
            unassign(v, c)
        color[v] = -1
        return False

    try:
        return color if dfs(0, 0) else None
    finally:
        del dfs


def id_order_d(g: Graph, k: int, mode: str) -> int:
    """The largest feasible class count, descending from the ceiling d_xk
    starts from; 1 when no count of 2 or more is feasible."""
    check_degree_gate(g, k, mode)
    for count in range(_search_bounds(g, k, mode, gamma_xk(g, k, mode)).ceiling, 1, -1):
        if id_order_partition(g, k, mode, count) is not None:
            return count
    return 1
