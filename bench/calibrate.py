"""A fixed pure-Python kernel that measures how fast the processor runs right now.

On a shared virtual machine the speed of the same Python code drifts by up
to 2x over seconds to minutes, in wall and CPU time alike, and a whole run
can sit in a slow or a fast phase.  The benchmark runs ``kernel`` from a
profiling timer every 0.1 s of CPU time and scales each execution's time by
``REFERENCE_S`` over the kernel times measured during and around it, so
that a time reads as it would at the speed where the kernel takes
``REFERENCE_S``.  The kernel mixes the operations the library spends its
time on: a recursive bitset search with per-vertex demand lists, a
backtracking colouring with nested per-class hit counts, dict and integer
arithmetic, and popcounts of masks.  It shares no code with the library,
so a change to the library cannot move it.

Measured on a 2-vCPU Xeon (2.1 GHz) KVM guest over six minutes, in which the
raw times of four library calls (a small-G(n,p) verify_all, a
_find_partition, a dense verify_all and a cycle compute_invariants) moved by
0.15-0.23 between 26 s windows (quartile spread over the median), the same
times divided by the kernel run beside them moved by 0.01-0.05.
"""

from __future__ import annotations

from time import perf_counter

REFERENCE_S = 0.005  # the kernel's typical time on the guest named above

_N = 16
_COVERS = tuple((1 << v) | (1 << (v - 1) % _N) | (1 << (v + 1) % _N) for v in range(_N))
_COVER_BITS = tuple(tuple(u for u in range(_N) if c >> u & 1) for c in _COVERS)
_MASKS = tuple((v * 2654435761) & 0xFFFFFF for v in range(1, 121))
# closed neighbourhoods of the circulant graph C_12(1, 2)
_M = 12
_NEIGHBOURHOODS = tuple(tuple(sorted({(v + d) % _M for d in (-2, -1, 0, 1, 2)})) for v in range(_M))


def _search() -> int:
    """Minimum dominating set of the cycle on _N vertices by branch and bound."""
    demand = [1] * _N
    best = [_N + 1]

    def explore(idx: int, count: int, undecided: int) -> None:
        worst = 0
        for v in range(_N):
            dv = demand[v]
            if dv > 0:
                if dv > (_COVERS[v] & undecided).bit_count():
                    return
                if dv > worst:
                    worst = dv
        if worst == 0:
            best[0] = min(best[0], count)
            return
        if count + worst >= best[0]:
            return
        rest = undecided ^ (1 << idx)
        for u in _COVER_BITS[idx]:
            demand[u] -= 1
        explore(idx + 1, count + 1, rest)
        for u in _COVER_BITS[idx]:
            demand[u] += 1
        explore(idx + 1, count, rest)

    explore(0, 0, (1 << _N) - 1)
    return best[0]


def _partition(classes: int = 4) -> bool:
    """Whether C_12(1, 2) splits into ``classes`` dominating sets, by backtracking."""
    counts = [[0] * classes for _ in range(_M)]
    undecided = [len(nb) for nb in _NEIGHBOURHOODS]
    deficit = [classes] * _M

    def assign(v: int, c: int) -> bool:
        ok = True
        for u in _NEIGHBOURHOODS[v]:
            undecided[u] -= 1
            cu = counts[u]
            if cu[c] < 1:
                deficit[u] -= 1
            cu[c] += 1
            if deficit[u] > undecided[u]:
                ok = False
        return ok

    def unassign(v: int, c: int) -> None:
        for u in _NEIGHBOURHOODS[v]:
            cu = counts[u]
            cu[c] -= 1
            if cu[c] < 1:
                deficit[u] += 1
            undecided[u] += 1

    def dfs(v: int, opened: int) -> bool:
        if v == _M:
            return True
        for c in range(min(opened + 1, classes)):
            if assign(v, c) and dfs(v + 1, max(opened, c + 1)):
                return True
            unassign(v, c)
        return False

    return dfs(0, 0)


def _dict() -> int:
    s = 0
    d: dict[int, int] = {}
    for i in range(8000):
        s += (i * i) % 7
        d[i & 255] = s
    return s


def _bits() -> int:
    total = 0
    for a in _MASKS:
        for b in _MASKS[:24]:
            total += (a & b).bit_count() + ((a | b) >> 3 & 0xFF)
    return total


def kernel() -> float:
    """Seconds that one run of the kernel takes now."""
    start = perf_counter()
    _search()
    _partition()
    _dict()
    _bits()
    return perf_counter() - start
