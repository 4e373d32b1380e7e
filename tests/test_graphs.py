"""Graph construction, families, and the edge-list text format."""

from __future__ import annotations

import re

import pytest
from hypothesis import given, settings

from ktdom import (
    DuplicateEdgeWarning,
    Graph,
    GraphFormatError,
    clique_chain,
    complement,
    complete,
    complete_bipartite,
    cycle,
    disjoint_union,
    gnp,
    k_join,
    path,
    random_regular,
    read_graph,
    write_graph,
)
from ktdom.graphs import bit_list
from strategies import graphs


class TestGraph:
    def test_rejects_empty_vertex_set(self):
        with pytest.raises(ValueError):
            Graph(0)

    def test_rejects_self_loop(self):
        with pytest.raises(ValueError, match="self-loop"):
            Graph(3, [(1, 1)])

    def test_rejects_out_of_range_edge(self):
        with pytest.raises(ValueError, match="outside vertex range"):
            Graph(3, [(0, 3)])

    def test_adjacency_is_symmetric(self):
        g = Graph(4, [(0, 2), (2, 3)])
        assert g.has_edge(2, 0) and g.has_edge(0, 2)
        assert not g.has_edge(0, 1)

    def test_parallel_edges_collapse(self):
        g = Graph(3, [(0, 1), (1, 0), (0, 1)])
        assert g.edge_count == 1

    def test_edges_sorted(self):
        g = Graph(4, [(3, 2), (1, 0), (0, 3)])
        assert g.edges() == [(0, 1), (0, 3), (2, 3)]

    def test_equality_and_hash(self):
        a = Graph(3, [(0, 1)])
        b = Graph(3, [(1, 0)])
        assert a == b and hash(a) == hash(b)
        assert a != Graph(3, [(0, 2)])
        assert a != Graph(4, [(0, 1)])

    @given(graphs())
    def test_cover_lists_are_built_once(self, g):
        twin = Graph(g.n, g.edges())  # its lists are never built
        unbuilt = hash(g)
        for mode in ("closed", "open"):
            lists = g.cover_lists(mode)
            assert list(lists) == [bit_list(mask) for mask in g.covers(mode)]
            assert g.cover_lists(mode) is lists
        assert g == twin and hash(g) == hash(twin) == unbuilt

    def test_degree_summary(self):
        g = path(4)
        assert (g.min_degree, g.max_degree, g.edge_count) == (1, 2, 3)
        assert not g.is_regular()
        assert cycle(5).is_regular()

    def test_bipartite_recognition(self):
        assert complete_bipartite(3, 4).is_bipartite()
        assert cycle(6).is_bipartite()
        assert not cycle(5).is_bipartite()
        assert path(1).is_bipartite()
        # disconnected case: one odd cycle poisons the whole graph
        assert not disjoint_union([path(2), cycle(3)]).is_bipartite()


class TestFamilies:
    def test_complete(self):
        g = complete(5)
        assert g.edge_count == 10 and g.is_regular() and g.min_degree == 4
        assert complete(1).edge_count == 0

    def test_complete_bipartite_layout(self):
        g = complete_bipartite(2, 3)
        assert g.n == 5 and g.edge_count == 6
        assert not g.has_edge(0, 1) and not g.has_edge(2, 4)
        assert g.has_edge(0, 2) and g.has_edge(1, 4)
        with pytest.raises(ValueError):
            complete_bipartite(0, 3)

    def test_cycle_and_path(self):
        assert cycle(3) == complete(3)
        assert cycle(4).edge_count == 4
        with pytest.raises(ValueError):
            cycle(2)
        assert path(1).n == 1 and path(1).edge_count == 0

    def test_disjoint_union_relabels(self):
        g = disjoint_union([complete(3), complete(3)])
        assert g.n == 6 and g.edge_count == 6
        assert g.has_edge(3, 4) and not g.has_edge(2, 3)
        with pytest.raises(ValueError):
            disjoint_union([])

    def test_k_join_all_is_complete_join(self):
        g = k_join(path(2), complete(3), 2)
        assert g.n == 5
        # every cross pair present
        assert all(g.has_edge(u, 2 + w) for u in range(2) for w in range(3))

    def test_k_join_seeded_adds_exactly_k_per_vertex(self):
        g = k_join(path(3), complete(5), 2, rule="seeded", seed=11)
        for u in range(3):
            cross = [w for w in range(3, 8) if g.has_edge(u, w)]
            assert len(cross) == 2
        again = k_join(path(3), complete(5), 2, rule="seeded", seed=11)
        assert g == again
        assert g != k_join(path(3), complete(5), 2, rule="seeded", seed=12)

    def test_k_join_rejects_small_target(self):
        # joining each vertex to k target vertices needs k of them to exist
        with pytest.raises(ValueError, match="needs at least k"):
            k_join(complete(2), complete(2), 3)

    def test_k_join_rule_validation(self):
        with pytest.raises(ValueError, match="seed"):
            k_join(path(2), complete(3), 1, rule="seeded")
        with pytest.raises(ValueError, match="join rule"):
            k_join(path(2), complete(3), 1, rule="sparse")

    def test_clique_chain_smallest_is_a_path(self):
        assert clique_chain(1) == path(4)

    def test_clique_chain_degrees(self):
        g = clique_chain(2)
        assert g.n == 8
        assert (g.min_degree, g.max_degree) == (3, 5)

    def test_gnp_extremes_and_determinism(self):
        assert gnp(6, 0.0, 1).edge_count == 0
        assert gnp(6, 1.0, 1) == complete(6)
        assert gnp(10, 0.4, 7) == gnp(10, 0.4, 7)
        assert gnp(10, 0.4, 7) != gnp(10, 0.4, 8)
        with pytest.raises(ValueError):
            gnp(5, 1.5, 1)

    def test_random_regular(self):
        g = random_regular(10, 3, 5)
        assert g.is_regular() and g.min_degree == 3
        assert g == random_regular(10, 3, 5)
        with pytest.raises(ValueError, match="even"):
            random_regular(5, 3, 1)
        with pytest.raises(ValueError):
            random_regular(4, 4, 1)

    def test_complement_of_complete_is_empty(self):
        assert complement(complete(5)).edge_count == 0

    @given(graphs())
    def test_complement_involution(self, g):
        assert complement(complement(g)) == g

    @given(graphs(min_n=2))
    def test_complement_edge_count(self, g):
        assert complement(g).edge_count == g.n * (g.n - 1) // 2 - g.edge_count


ARGUMENT_CHECKS = [
    ("complete(0)", lambda: complete(0), "complete graph needs at least one vertex"),
    ("path(0)", lambda: path(0), "path needs at least one vertex"),
    ("gnp(0, 0.5, 1)", lambda: gnp(0, 0.5, 1), "a graph needs at least one vertex"),
    # gnp checks p itself and leaves n to Graph, which sees it only after the p check
    ("gnp(0, 1.5, 1)", lambda: gnp(0, 1.5, 1), "edge probability must lie in [0, 1]"),
    ("random_regular(0, 0, 1)", lambda: random_regular(0, 0, 1), "a graph needs at least one vertex"),
    ("k_join(P2, P2, 0)", lambda: k_join(path(2), path(2), 0), "k must be a positive integer"),
    ("clique_chain(0)", lambda: clique_chain(0), "k must be a positive integer"),
    # Graph.__eq__ answers NotImplemented, so Python falls back to identity
    ("Graph(1).__eq__(1)", lambda: Graph(1).__eq__(1), NotImplemented),
    ("Graph(1) == 1", lambda: Graph(1) == 1, False),
]


@pytest.mark.parametrize("call, outcome", [case[1:] for case in ARGUMENT_CHECKS],
                         ids=[case[0] for case in ARGUMENT_CHECKS])
def test_argument_checks(call, outcome):
    """A call that a generator's checks refuse raises the ValueError named here; the rest return outcome."""
    if isinstance(outcome, str):
        with pytest.raises(ValueError, match=f"^{re.escape(outcome)}$"):
            call()
    else:
        assert call() is outcome


class TestEdgeListFormat:
    @given(graphs())
    @settings(max_examples=200)
    def test_roundtrip(self, g):
        assert read_graph(write_graph(g)) == g

    def test_comments_and_blanks_skipped(self):
        text = "# a comment\n\nn 3\n# another\n0 1\n\n1 2\n"
        assert read_graph(text) == path(3)

    def test_duplicate_edge_warns_and_drops(self):
        with pytest.warns(DuplicateEdgeWarning):
            g = read_graph("n 3\n0 1\n1 0\n")
        assert g.edge_count == 1

    @pytest.mark.parametrize(
        "text, message",
        [
            ("", "missing header"),
            ("0 1\n", "expected header"),
            ("n x\n", "not an integer"),
            ("n 0\n", "positive"),
            ("n 100000000000000000000\n", "exceeds the limit"),
            ("n 3\n0 1 2\n", "expected 'u v'"),
            ("n 3\n0 a\n", "integers"),
            ("n 3\n1 1\n", "self-loop"),
            ("n 3\n0 5\n", "outside vertex range"),
        ],
    )
    def test_malformed_input(self, text, message):
        with pytest.raises(GraphFormatError, match=message):
            read_graph(text)

    def test_write_is_canonical(self):
        g = Graph(3, [(2, 1), (1, 0)])
        assert write_graph(g) == "n 3\n0 1\n1 2\n"
