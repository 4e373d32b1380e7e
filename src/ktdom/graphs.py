"""Immutable bitmask graphs, standard families, and edge-list text I/O.

Vertices are dense integers 0..n-1.  Each adjacency row is a Python int used
as a bitset, so neighbourhood intersections reduce to ``&`` followed by
``bit_count()``; every solver in this package leans on that representation.
Each family is a plain generator function; the command line maps family
names and their parameters onto these functions itself.
"""

from __future__ import annotations

import random
import warnings
from collections import deque
from typing import Iterable, Iterator

PAIRING_RETRY_BUDGET = 1000


class GraphFormatError(ValueError):
    """Malformed edge-list text."""


class PairingFailureError(RuntimeError):
    """The pairing model exhausted its retry budget without a simple graph."""


class DuplicateEdgeWarning(UserWarning):
    """A repeated edge line was dropped while reading an edge list."""


def iter_bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of mask in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def bit_list(mask: int) -> tuple[int, ...]:
    """Set bit positions of mask as a sorted tuple.

    Built from a list, whose length is known.  A tuple built from a
    generator is allocated at a guessed size and then resized, so when it
    dies it is parked on the interpreter's free list for a size that such
    calls never take from; those lists are emptied only by a full
    collection, so each call would leave a tuple behind.
    """
    return tuple(list(iter_bits(mask)))


class Graph:
    """A finite simple undirected graph with bitset adjacency rows.

    ``adj[v]`` holds the open neighbourhood N(v) as a bitmask and
    ``closed[v]`` the closed neighbourhood N[v] (adj[v] with bit v set).
    Instances are immutable after construction; all attributes are tuples.
    """

    __slots__ = ("n", "adj", "closed", "deg")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()):
        if n < 1:
            raise ValueError("a graph needs at least one vertex")
        adj = [0] * n
        for u, v in edges:
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) outside vertex range 0..{n - 1}")
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        self.n = n
        self.adj = tuple(adj)
        self.closed = tuple([a | (1 << v) for v, a in enumerate(adj)])
        self.deg = tuple([a.bit_count() for a in adj])

    @property
    def min_degree(self) -> int:
        return min(self.deg)

    @property
    def max_degree(self) -> int:
        return max(self.deg)

    @property
    def edge_count(self) -> int:
        return sum(self.deg) // 2

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adj[u] >> v & 1)

    def neighbors(self, v: int) -> tuple[int, ...]:
        return bit_list(self.adj[v])

    def edges(self) -> list[tuple[int, int]]:
        """All edges as (u, v) with u < v, sorted lexicographically."""
        return [(u, v) for u in range(self.n) for v in iter_bits(self.adj[u] >> (u + 1) << (u + 1))]

    def is_regular(self) -> bool:
        return self.min_degree == self.max_degree

    def is_bipartite(self) -> bool:
        side = [-1] * self.n
        for start in range(self.n):
            if side[start] >= 0:
                continue
            side[start] = 0
            queue = deque([start])
            while queue:
                u = queue.popleft()
                for w in iter_bits(self.adj[u]):
                    if side[w] < 0:
                        side[w] = 1 - side[u]
                        queue.append(w)
                    elif side[w] == side[u]:
                        return False
        return True

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and self.adj == other.adj

    def __hash__(self) -> int:
        return hash((self.n, self.adj))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.edge_count})"


# ---------------------------------------------------------------------------
# generators


def complete(n: int) -> Graph:
    """K_n."""
    if n < 1:
        raise ValueError("complete graph needs at least one vertex")
    return Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def complete_bipartite(a: int, b: int) -> Graph:
    """K_{a,b} with sides 0..a-1 and a..a+b-1."""
    if a < 1 or b < 1:
        raise ValueError("both sides of a complete bipartite graph must be nonempty")
    return Graph(a + b, [(u, a + v) for u in range(a) for v in range(b)])


def cycle(n: int) -> Graph:
    """C_n."""
    if n < 3:
        raise ValueError("cycle needs at least three vertices")
    return Graph(n, [(v, (v + 1) % n) for v in range(n)])


def path(n: int) -> Graph:
    """P_n."""
    if n < 1:
        raise ValueError("path needs at least one vertex")
    return Graph(n, [(v, v + 1) for v in range(n - 1)])


def disjoint_union(parts: Iterable[Graph]) -> Graph:
    """Disjoint union; part vertex sets are relabelled consecutively."""
    parts = list(parts)
    if not parts:
        raise ValueError("disjoint union of zero graphs is empty")
    edges: list[tuple[int, int]] = []
    offset = 0
    for g in parts:
        edges.extend((offset + u, offset + v) for u, v in g.edges())
        offset += g.n
    return Graph(offset, edges)


def k_join(g: Graph, h: Graph, k: int, rule: str = "all", seed: int | None = None) -> Graph:
    """Join every vertex of g to at least k vertices of h.

    ``rule="all"`` adds the complete join.  ``rule="seeded"`` adds exactly k
    cross edges per g-vertex, drawn deterministically from the seed.  The
    result keeps g on 0..g.n-1 and shifts h onto g.n..g.n+h.n-1.
    """
    if k < 1:
        raise ValueError("k must be a positive integer")
    if h.n < k:
        raise ValueError(f"join target has {h.n} vertices, needs at least k={k}")
    edges = g.edges()
    edges.extend((g.n + u, g.n + v) for u, v in h.edges())
    if rule == "all":
        edges.extend((u, g.n + w) for u in range(g.n) for w in range(h.n))
    elif rule == "seeded":
        if seed is None:
            raise ValueError("rule 'seeded' needs a seed")
        rng = random.Random(seed)
        for u in range(g.n):
            edges.extend((u, g.n + w) for w in sorted(rng.sample(range(h.n), k)))
    else:
        raise ValueError(f"unknown join rule {rule!r}, expected 'all' or 'seeded'")
    return Graph(g.n + h.n, edges)


def clique_chain(k: int) -> Graph:
    """Four copies of K_k in a row, consecutive copies completely joined."""
    if k < 1:
        raise ValueError("k must be a positive integer")
    blocks = [list(range(i * k, (i + 1) * k)) for i in range(4)]
    edges: list[tuple[int, int]] = []
    for block in blocks:
        edges.extend((u, v) for i, u in enumerate(block) for v in block[i + 1 :])
    for left, right in zip(blocks, blocks[1:]):
        edges.extend((u, v) for u in left for v in right)
    return Graph(4 * k, edges)


def gnp(n: int, p: float, seed: int) -> Graph:
    """Erdos-Renyi G(n, p), one Bernoulli draw per vertex pair in lex order."""
    if n < 1:
        raise ValueError("a graph needs at least one vertex")
    if not 0.0 <= p <= 1.0:
        raise ValueError("edge probability must lie in [0, 1]")
    rng = random.Random(seed)
    return Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p])


def random_regular(n: int, r: int, seed: int) -> Graph:
    """Random r-regular graph via the pairing model with bounded retries."""
    if n < 1:
        raise ValueError("a graph needs at least one vertex")
    if not 0 <= r < n:
        raise ValueError("degree must satisfy 0 <= r < n")
    if n * r % 2:
        raise ValueError("n*r must be even")
    rng = random.Random(seed)
    for _ in range(PAIRING_RETRY_BUDGET):
        stubs = [v for v in range(n) for _ in range(r)]
        rng.shuffle(stubs)
        seen: set[tuple[int, int]] = set()
        for i in range(0, len(stubs), 2):
            u, v = stubs[i], stubs[i + 1]
            if u == v or (min(u, v), max(u, v)) in seen:
                break
            seen.add((min(u, v), max(u, v)))
        else:
            return Graph(n, sorted(seen))
    raise PairingFailureError(
        f"pairing model produced no simple graph in {PAIRING_RETRY_BUDGET} attempts (n={n}, r={r})"
    )


def complement(g: Graph) -> Graph:
    """Complement graph on the same vertex set."""
    return Graph(g.n, [(u, v) for u in range(g.n) for v in range(u + 1, g.n) if not g.has_edge(u, v)])


# ---------------------------------------------------------------------------
# edge-list text format
#
#   # comment lines start with '#'
#   n <vertex count>          (first non-comment line)
#   u v                       (one edge per line, 0-indexed)


def read_graph(text: str) -> Graph:
    """Parse edge-list text.  Duplicate edges warn and are dropped."""
    n: int | None = None
    edges: list[tuple[int, int]] = []
    seen: set[tuple[int, int]] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        if n is None:
            if len(tokens) != 2 or tokens[0] != "n":
                raise GraphFormatError(f"line {lineno}: expected header 'n <count>', got {line!r}")
            try:
                n = int(tokens[1])
            except ValueError:
                raise GraphFormatError(f"line {lineno}: vertex count {tokens[1]!r} is not an integer") from None
            if n < 1:
                raise GraphFormatError(f"line {lineno}: vertex count must be positive")
            continue
        if len(tokens) != 2:
            raise GraphFormatError(f"line {lineno}: expected 'u v', got {line!r}")
        try:
            u, v = int(tokens[0]), int(tokens[1])
        except ValueError:
            raise GraphFormatError(f"line {lineno}: edge endpoints must be integers, got {line!r}") from None
        if u == v:
            raise GraphFormatError(f"line {lineno}: self-loop at vertex {u}")
        if not (0 <= u < n and 0 <= v < n):
            raise GraphFormatError(f"line {lineno}: edge ({u}, {v}) outside vertex range 0..{n - 1}")
        key = (min(u, v), max(u, v))
        if key in seen:
            warnings.warn(f"line {lineno}: duplicate edge {u} {v} dropped", DuplicateEdgeWarning, stacklevel=2)
            continue
        seen.add(key)
        edges.append(key)
    if n is None:
        raise GraphFormatError("missing header line 'n <count>'")
    return Graph(n, edges)


def write_graph(g: Graph) -> str:
    """Canonical edge-list text: header, then edges sorted with u < v."""
    lines = [f"n {g.n}"]
    lines.extend(f"{u} {v}" for u, v in g.edges())
    return "\n".join(lines) + "\n"
