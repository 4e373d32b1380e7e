"""Test-only certificate for d: count partitions by inclusion-exclusion.

The ordered partitions of V into c valid classes number
sum over X of (-1)^(n-|X|) [z^n] f_X(z)^c, where f_X(z) sums z^|S| over the
valid S inside X (Bjorklund, Husfeldt and Koivisto, SIAM J. Comput. 39(2),
2009).  Merging two classes keeps a partition valid, so d is certified when
the count at d is positive and the count at d + 1 is zero.  No search, no
ceiling and no gamma: validity is the literal case-split predicate.
"""

from __future__ import annotations

from math import comb
from operator import add

from ktdom import Graph
from ktdom.domination import satisfies_by_cases


def partition_counts(g: Graph, k: int, mode: str, c: int) -> tuple[int, int]:
    """The numbers of ordered partitions of V into c and into c + 1 k-tuple
    dominating classes of the mode."""
    n = g.n
    size = 1 << n
    nbrs = [set(g.neighbors(v)) for v in range(n)]
    # each polynomial is packed into an int, w bits per coefficient; below z^(n+1)
    # no coefficient of f^(c+1) exceeds comb((c+1)n, n), so none carries into the next
    w = comb((c + 1) * n, n).bit_length() + 1
    half = n // 2
    lows = [{v for v in range(half) if s >> v & 1} for s in range(1 << half)]
    highs = [{v for v in range(half, n) if s >> (v - half) & 1} for s in range(size >> half)]
    f = [1 << (len(s) * w) if satisfies_by_cases(nbrs, s, k, mode) else 0
         for s in (low | high for high in highs for low in lows)]
    for i in range(n):  # zeta transform: f[X] becomes f_X
        bit = 1 << i
        # add each X without bit i into X with it: strided slices while bit i is low,
        # contiguous blocks once it is high, so that no pass takes more than 2^(n/2) slices
        if bit * bit < size:
            for r in range(bit, 2 * bit):
                f[r::2 * bit] = map(add, f[r::2 * bit], f[r - bit::2 * bit])
        else:
            for b in range(bit, size, 2 * bit):
                f[b:b + bit] = map(add, f[b:b + bit], f[b - bit:b])
    low = (1 << ((n + 1) * w)) - 1
    at_c = at_c1 = 0
    for x, fx in enumerate(f):
        if fx:
            p = fx
            for bit in bin(c)[3:]:  # square and multiply, dropping the terms above z^n
                p = p * p & low
                if bit == "1":
                    p = p * fx & low
            q = p * fx & low
            if (n - x.bit_count()) & 1:
                at_c -= p
                at_c1 -= q
            else:
                at_c += p
                at_c1 += q
    # fewer than n members never cover V, so the signed sums vanish below z^n
    return at_c >> (n * w), at_c1 >> (n * w)
