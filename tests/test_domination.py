"""Minimum k-tuple dominating sets: predicates, exact solver, oracle."""

from __future__ import annotations

import inspect
import random
import sys
from itertools import chain, combinations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ktdom import (
    DegreeGateError,
    OracleCapError,
    clique_chain,
    complete,
    complete_bipartite,
    compute_invariants,
    cycle,
    disjoint_union,
    gamma_oracle,
    gamma_xk,
    gnp,
    is_ktuple_dominating,
    is_ktuple_dominating_by_cases,
    is_ktuple_total_dominating,
    kjoin_decomposition_exists,
    path,
    random_regular,
)
from ktdom import domination
from ktdom.domination import ORACLE_VERTEX_CAP, satisfies_by_cases
from ktdom.graphs import bit_list
from strategies import all_graphs, graphs, sweep
from test_domatic import within

# value table derived from the brute-force oracle; every row is re-asserted
# against both the solver and the oracle below
FROZEN_GAMMA = [
    (path(4), 1, "closed", 2),
    (cycle(5), 2, "closed", 4),
    (complete_bipartite(2, 2), 3, "closed", 4),
    (disjoint_union([complete(3), complete(3)]), 3, "closed", 6),
    (complete(4), 2, "closed", 2),
    (complete_bipartite(1, 5), 1, "closed", 1),
    (cycle(4), 2, "open", 4),
    (cycle(6), 1, "open", 4),
]


def exact_size_minimum(g, k):
    """The least t in k..n with an exact-size-t block, by the literal definition."""
    return next(t for t in range(k, g.n + 1) if kjoin_decomposition_exists(g, k, t) is not None)


@pytest.mark.parametrize("g, k, mode, expected", FROZEN_GAMMA)
def test_frozen_values_match_solver_and_oracle(g, k, mode, expected):
    assert gamma_xk(g, k, mode).value == expected
    assert gamma_oracle(g, k, mode).value == expected


def _beyond_hypothesis(cycles_and_paths, regular, unions, dense, mode):
    """Seeded sparse graphs past the hypothesis range of n <= 6, with every k
    in 1..3 that passes the mode's degree gate."""
    named = [(f"C{n}", cycle(n)) for n in cycles_and_paths] + [(f"P{n}", path(n)) for n in cycles_and_paths]
    named += [(f"rr3({n},{s})", random_regular(n, 3, s)) for n, s in regular]
    named += [(f"K3*{a}+K4*{b}", disjoint_union([complete(3)] * a + [complete(4)] * b)) for a, b in unions]
    named += [(f"gnp({n},{p},{s})", gnp(n, p, s)) for n, p, s in dense]
    need = 1 if mode == "closed" else 0
    return [pytest.param(g, k, id=f"{name} k={k}") for name, g in named for k in (1, 2, 3) if g.min_degree >= k - need]


CLOSED_BEYOND = _beyond_hypothesis(
    (17, 20, 24), [(16, 1), (20, 2), (22, 3)], [(6, 0), (0, 5), (4, 3)],
    [(18, 0.3, 1), (20, 0.25, 2), (22, 0.2, 3), (24, 0.3, 4), (24, 0.2, 5),
     (13, 0.5, 1), (14, 0.7, 2), (15, 0.9, 1), (16, 0.5, 2), (16, 0.9, 2)], "closed",
)
OPEN_BEYOND = _beyond_hypothesis(
    (12, 14), [(12, 1), (14, 2)], [(4, 0), (0, 3), (2, 2)],
    [(12, 0.3, 1), (13, 0.25, 2), (14, 0.3, 3), (14, 0.2, 4)], "open",
)


# (graph, mode, (value, nodes_explored, witness)) of gamma_xk at k = 1: the
# benchmark's 3-regular ladder in both modes, and a cycle and a path in open mode
PINNED_SEARCHES = [
    (random_regular(24, 3, 1), "closed", (7, 661, (0, 2, 3, 4, 7, 11, 19))),
    (random_regular(24, 3, 1), "open", (8, 161, (0, 2, 3, 6, 7, 12, 21, 22))),
    (random_regular(24, 3, 2), "closed", (7, 1641, (0, 1, 2, 3, 6, 20, 23))),
    (random_regular(24, 3, 2), "open", (8, 1779, (3, 4, 8, 9, 10, 17, 20, 21))),
    (random_regular(24, 3, 3), "closed", (7, 1185, (0, 1, 4, 8, 10, 15, 17))),
    (random_regular(24, 3, 3), "open", (9, 2665, (0, 1, 3, 5, 10, 14, 16, 19, 23))),
    (cycle(30), "open", (16, 209, (0, 1, 4, 5, 8, 9, 12, 13, 16, 17, 20, 21, 24, 25, 26, 27))),
    (path(26), "open", (14, 47, (1, 2, 5, 6, 9, 10, 13, 14, 17, 18, 21, 22, 23, 24))),
]


# (graph, k, mode, (value, witness, nodes_explored)) of gamma_oracle: its first hit in
# lexicographic order within each size, and the subsets it tested up to that hit
PINNED_ORACLE = [
    (path(5), 1, "closed", (2, (0, 3), 9)),
    (path(5), 1, "open", (3, (1, 2, 3), 23)),
    (cycle(7), 2, "closed", (5, (0, 1, 2, 4, 5), 103)),
    (cycle(7), 2, "open", (7, (0, 1, 2, 3, 4, 5, 6), 128)),
    (complete_bipartite(2, 3), 2, "closed", (3, (0, 1, 2), 17)),
    (complete_bipartite(2, 3), 2, "open", (4, (0, 1, 2, 3), 27)),
    (clique_chain(2), 2, "closed", (4, (0, 1, 4, 5), 103)),
    (clique_chain(2), 2, "open", (4, (2, 3, 4, 5), 149)),
    (gnp(8, 0.5, 3), 2, "closed", (5, (0, 1, 2, 4, 5), 168)),
    (gnp(8, 0.5, 3), 2, "open", (6, (1, 2, 3, 5, 6, 7), 244)),
    (gnp(9, 0.7, 19), 1, "closed", (1, (1,), 3)),
    (gnp(9, 0.7, 19), 1, "open", (2, (0, 1), 11)),
]


def _lowest(first, last):
    """The lowest-id witnesses the scan returns at t = first..last."""
    return [tuple(range(t)) for t in range(first, last + 1)]


def block_sizes_by_sets(g, k):
    """Every t with a k-tuple dominating set of exactly t vertices, by the literal
    definition on plain sets over all subsets: members need k - 1 neighbours inside,
    non-members k."""
    nbrs = [set(bit_list(a)) for a in g.adj]
    sizes = set()
    for size in range(g.n + 1):
        for combo in combinations(range(g.n), size):
            members = set(combo)
            if all(len(nv & members) >= (k - 1 if v in members else k) for v, nv in enumerate(nbrs)):
                sizes.add(size)
                break
    return sizes


# (graph, k, the exact-size scan's answer at each t from k - 1 to n); at t >= gamma
# the witness is the fail-first search's first block, padded with the lowest ids
PINNED_SCANS = [
    pytest.param(
        cycle(13), 1,
        [None] * 5
        + [(0, 1, 4, 7, 10), (0, 1, 2, 4, 7, 10), (0, 1, 2, 3, 4, 7, 10), (0, 1, 2, 3, 4, 5, 7, 10)]
        + [(0, 1, 2, 3, 4, 5, 6, 7, 10), (0, 1, 2, 3, 4, 5, 6, 7, 8, 10)]
        + _lowest(11, 13),
        id="C13 k=1",
    ),
    pytest.param(gnp(12, 0.6, 3), 1, [None, None, (0, 4), (0, 3, 4)] + _lowest(4, 12), id="gnp(12,0.6,3) k=1"),
    pytest.param(gnp(12, 0.6, 3), 2, [None] * 3 + [(0, 2, 4, 10)] + _lowest(5, 12), id="gnp(12,0.6,3) k=2"),
]


class TestPredicates:
    def test_uniform_test_on_members_and_outsiders(self):
        g = complete(4)
        assert is_ktuple_dominating(g, [0, 1], 2)
        assert not is_ktuple_dominating(g, [0], 2)
        # open mode: a member needs k neighbours besides itself
        assert not is_ktuple_total_dominating(g, [0, 1], 2)
        assert is_ktuple_total_dominating(g, [0, 1, 2], 2)

    def test_empty_set_fails_for_positive_k(self):
        assert not is_ktuple_dominating(complete(3), [], 1)

    def test_whole_vertex_set_passes_when_gate_holds(self):
        g = cycle(5)
        assert is_ktuple_dominating(g, range(5), 3)  # delta + 1 = 3
        assert is_ktuple_total_dominating(g, range(5), 2)

    def test_rejects_foreign_vertices(self):
        with pytest.raises(ValueError, match="outside"):
            is_ktuple_dominating(complete(3), [0, 7], 1)
        with pytest.raises(ValueError, match="outside"):
            is_ktuple_dominating_by_cases(complete(3), [-1], 1)

    def test_rejects_bad_k(self):
        with pytest.raises(ValueError, match="positive integer"):
            is_ktuple_dominating(complete(3), [0], 0)

    def test_rejects_bools_as_k_and_as_vertices(self):
        # bool subclasses int, but True is neither a k nor a vertex id
        g = cycle(5)
        for k in (True, False):
            with pytest.raises(ValueError, match="positive integer"):
                is_ktuple_dominating(g, [0, 1, 2], k)
            with pytest.raises(ValueError, match="positive integer"):
                gamma_xk(g, k)
            # also where no mode is solved: K1 has no open-mode set at any k
            with pytest.raises(ValueError, match="positive integer"):
                compute_invariants(complete(1), k, "open")
        for check in (is_ktuple_dominating, is_ktuple_dominating_by_cases, is_ktuple_total_dominating):
            with pytest.raises(ValueError, match="outside"):
                check(g, [True, False, 3], 1)

    def test_case_split_equivalence_exhaustive(self):
        # both encodings agree on every subset of every graph with n <= 4
        for n in range(1, 5):
            for g in all_graphs(n):
                subsets = chain.from_iterable(combinations(range(n), s) for s in range(n + 1))
                for s in subsets:
                    for k in (1, 2, 3):
                        assert is_ktuple_dominating(g, s, k) == is_ktuple_dominating_by_cases(g, s, k)

    def test_mask_predicate_matches_the_definition_on_sets(self):
        # the literal definition on plain sets, against the mask predicate on every subset
        # of every labelled graph with n <= 5, k 1-3 and both modes
        for g in sweep(5):
            nbrs = [set(bit_list(a)) for a in g.adj]
            for s in range(1 << g.n):
                members = set(bit_list(s))
                for k, mode in product((1, 2, 3), ("closed", "open")):
                    by_sets = all(len(nv & members) >= (k - 1 if mode == "closed" and v in members else k)
                                  for v, nv in enumerate(nbrs))
                    assert satisfies_by_cases(g.adj, s, k, mode) == by_sets, (g.adj, s, k, mode)

    @given(graphs(max_n=7), st.data())
    def test_case_split_equivalence_random(self, g, data):
        s = data.draw(st.sets(st.integers(0, g.n - 1)))
        k = data.draw(st.integers(1, 3))
        assert is_ktuple_dominating(g, s, k) == is_ktuple_dominating_by_cases(g, s, k)


class TestDegreeGates:
    def test_closed_gate(self):
        with pytest.raises(DegreeGateError) as info:
            gamma_xk(path(3), 3)
        assert (info.value.delta, info.value.k, info.value.mode) == (1, 3, "closed")

    def test_open_gate_is_stricter(self):
        g = complete(2)
        assert gamma_xk(g, 2).value == 2  # closed works at delta = k - 1
        with pytest.raises(DegreeGateError):
            gamma_xk(g, 2, "open")

    def test_bad_mode_and_k(self):
        with pytest.raises(ValueError, match="mode"):
            gamma_xk(complete(3), 1, "semi")
        with pytest.raises(ValueError, match="positive integer"):
            gamma_xk(complete(3), 0)


class TestGammaSolver:
    @given(graphs(max_n=6), st.integers(1, 3), st.sampled_from(["closed", "open"]))
    @settings(max_examples=300)
    def test_matches_oracle(self, g, k, mode):
        need = k - 1 if mode == "closed" else k
        if g.min_degree < need:
            with pytest.raises(DegreeGateError):
                gamma_xk(g, k, mode)
            return
        assert gamma_xk(g, k, mode).value == gamma_oracle(g, k, mode).value

    @given(graphs(), st.integers(1, 3))
    def test_witness_is_sound(self, g, k):
        if g.min_degree < k - 1:
            return
        res = gamma_xk(g, k)
        assert len(res.witness) == res.value
        assert is_ktuple_dominating(g, res.witness, k)
        assert res.mode == "closed" and res.k == k
        assert res.nodes_explored >= 1

    @given(graphs(), st.integers(1, 3))
    def test_open_witness_is_sound(self, g, k):
        if g.min_degree < k:
            return
        res = gamma_xk(g, k, "open")
        assert len(res.witness) == res.value
        assert is_ktuple_total_dominating(g, res.witness, k)

    @given(graphs(min_n=2), st.integers(1, 2))
    def test_monotone_in_k(self, g, k):
        if g.min_degree < k:  # gate for k + 1 in closed mode
            return
        assert gamma_xk(g, k).value <= gamma_xk(g, k + 1).value

    @given(graphs(), st.integers(1, 3))
    def test_closed_at_most_total(self, g, k):
        if g.min_degree < k:
            return
        assert gamma_xk(g, k).value <= gamma_xk(g, k, "open").value

    @given(graphs(), st.integers(1, 3), st.data())
    def test_superset_closure(self, g, k, data):
        if g.min_degree < k - 1:
            return
        witness = set(gamma_xk(g, k).witness)
        extra = data.draw(st.sets(st.integers(0, g.n - 1)))
        assert is_ktuple_dominating(g, witness | extra, k)

    def test_minimum_is_never_k_minus_one(self):
        # a member needs k-1 in-set neighbours, so any nonempty set has >= k vertices
        for n in range(1, 6):
            for g in all_graphs(n):
                for k in (2, 3):
                    if g.min_degree >= k - 1:
                        assert gamma_xk(g, k).value >= k

    def test_deterministic_witness(self):
        g = cycle(7)
        first = gamma_xk(g, 2)
        second = gamma_xk(g, 2)
        assert first.witness == second.witness
        assert first.nodes_explored == second.nodes_explored

    @pytest.mark.parametrize("g, k", CLOSED_BEYOND)
    def test_closed_matches_exact_size_scan_beyond_hypothesis(self, g, k):
        res = gamma_xk(g, k)
        assert res.value == exact_size_minimum(g, k)
        assert len(res.witness) == res.value and is_ktuple_dominating(g, res.witness, k)

    @pytest.mark.parametrize("g, k", OPEN_BEYOND)
    def test_open_matches_oracle_beyond_hypothesis(self, g, k):
        res = gamma_xk(g, k, "open")
        assert res.value == gamma_oracle(g, k, "open").value
        assert len(res.witness) == res.value and is_ktuple_total_dominating(g, res.witness, k)

    @pytest.mark.parametrize("n", range(36, 61, 6))
    def test_long_cycles_match_closed_forms(self, n):
        # the counting bound meets the greedy value at the root in closed mode
        one = gamma_xk(cycle(n), 1)
        assert (one.value, one.nodes_explored) == (-(-n // 3), 1)
        assert gamma_xk(cycle(n), 2).value == -(-2 * n // 3)
        assert gamma_xk(cycle(n), 1, "open").value == n // 2 + -(-n // 4) - n // 4

    @pytest.mark.parametrize("m, k", [
        pytest.param(m, k, id=f"K3*{m} k={k}") for m, k in [*product((10, 20, 40), (1, 2, 3)), (400, 2)]
    ])
    def test_disjoint_triangles_are_decided_at_the_root(self, m, k):
        res = gamma_xk(disjoint_union([complete(3)] * m), k)
        assert (res.value, res.nodes_explored) == (k * m, 1)

    def test_search_depth_is_not_bounded_by_recursion(self):
        # the search takes vertices one below the other on an explicit stack
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(len(inspect.stack(0)) + 30)
        try:
            res = gamma_xk(cycle(54), 1, "open")
        finally:
            sys.setrecursionlimit(limit)
        assert (res.value, res.nodes_explored) == (28, 401)

    def test_sparse_open_search_stays_small(self):
        # the search proves this minimum in about 90,000 nodes; the cap catches a vertex
        # order that needs ten times as many
        res = gamma_xk(gnp(32, 0.3, 149), 3, "open")
        assert res.value == 11
        assert is_ktuple_total_dominating(gnp(32, 0.3, 149), res.witness, 3)
        assert res.nodes_explored < 200_000

    @pytest.mark.parametrize("g, mode, expected", PINNED_SEARCHES)
    def test_search_is_pinned(self, g, mode, expected):
        # value, nodes and witness of the id-order search; any change to its order or prunes shows here
        res = gamma_xk(g, 1, mode)
        assert (res.value, res.nodes_explored, res.witness) == expected

    @pytest.mark.parametrize("seed", range(4))
    def test_smaller_set_against_enumeration(self, seed):
        # None exactly when no valid set has fewer than bound vertices; otherwise a minimum one
        rng = random.Random(seed)
        for _ in range(40):
            n = rng.randint(1, 10)
            g = gnp(n, rng.choice((0.3, 0.5, 0.7, 0.9)), rng.randrange(10**6))
            mode = rng.choice(("closed", "open"))
            k = rng.randint(1, 3)
            if g.min_degree < (k - 1 if mode == "closed" else k):
                continue
            valid = is_ktuple_dominating if mode == "closed" else is_ktuple_total_dominating
            bound = rng.randint(0, n + 1)
            least = min(mask.bit_count() for mask in range(1 << n) if valid(g, bit_list(mask), k))
            found, _ = domination._smaller_set(g, k, mode, bound)
            case = (n, mode, k, bound)
            if least >= bound:
                assert found is None, case
            else:
                assert found is not None and found.bit_count() == least and valid(g, bit_list(found), k), case


class TestOracle:
    def test_cap_is_enforced(self, monkeypatch):
        monkeypatch.setattr(domination, "satisfies_by_cases", lambda *args: pytest.fail("searched"))
        with pytest.raises(OracleCapError, match=f"n={ORACLE_VERTEX_CAP + 1} > cap={ORACLE_VERTEX_CAP}"):
            gamma_oracle(path(ORACLE_VERTEX_CAP + 1), 1)

    def test_answers_at_the_cap(self):
        assert gamma_oracle(path(ORACLE_VERTEX_CAP), 1).value == -(-ORACLE_VERTEX_CAP // 3)  # ceil(n/3)

    def test_respects_gate(self):
        with pytest.raises(DegreeGateError):
            gamma_oracle(path(3), 2, "open")

    @pytest.mark.parametrize("g, k, mode, expected", PINNED_ORACLE)
    def test_pinned_witness_and_count(self, g, k, mode, expected):
        result = gamma_oracle(g, k, mode)
        assert (result.value, result.witness, result.nodes_explored) == expected


class TestExactSizeScan:
    def test_every_size_from_minimum_up_exists(self):
        g = complete(4)
        assert kjoin_decomposition_exists(g, 2, 2) == (0, 1)
        for t in (2, 3, 4):
            found = kjoin_decomposition_exists(g, 2, t)
            assert found is not None and len(found) == t
            assert is_ktuple_dominating(g, found, 2)

    def test_below_minimum_has_no_witness(self):
        assert kjoin_decomposition_exists(cycle(5), 2, 3) is None  # minimum is 4

    def test_search_depth_is_not_bounded_by_recursion(self):
        # 50 vertices are taken one below the other on an explicit stack
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(len(inspect.stack(0)) + 30)
        try:
            found = kjoin_decomposition_exists(complete(60), 1, 50)
        finally:
            sys.setrecursionlimit(limit)
        assert found == tuple(range(50))

    def test_counting_bound_settles_sparse_probes(self):
        # C40 at k = 1 has gamma = 14: 13 vertices cover at most 39 of the 40 demands, so
        # the counting bound refutes the probe at 13 at its root; without the bound, and
        # in id order, the probe ran past 3 s.  C26 at k = 2 (gamma = 18) is refuted the same way
        found = within(0.2, lambda: [kjoin_decomposition_exists(cycle(40), 1, 13),
                                     kjoin_decomposition_exists(cycle(26), 2, 17)],
                       "scans of C40 at k = 1, t = 13 and C26 at k = 2, t = 17")
        assert found == [None, None]

    def test_fail_first_branching_settles_a_sparse_probe(self):
        # gamma_xk gives gamma = 22 for gnp(36, 0.15, 1) at k = 3; the probe at 21 takes
        # about 3 ms, branching on the demanding vertex of least slack, against 0.56 s
        # branching on the lowest-id demanding vertex and 0.9 s taking or leaving in id order
        g = gnp(36, 0.15, 1)
        found = within(0.2, lambda: kjoin_decomposition_exists(g, 3, 21), "scan of gnp(36, 0.15, 1) at k = 3, t = 21")
        assert found is None
        assert kjoin_decomposition_exists(g, 3, 22) is not None

    def test_remaining_prune_settles_dense_probes(self):
        # the probes at gamma - 1 that C11 makes on a dense graph within its scan cap take
        # under a millisecond in all; either the prune on a vertex whose demand exceeds the
        # vertices still to take or the counting bound settles them, and they take about
        # 0.1 s with neither
        g = gnp(16, 0.9, 1)
        probes = [(k, gamma_xk(g, k).value - 1) for k in range(5, 12)]
        found = within(0.025, lambda: [kjoin_decomposition_exists(g, k, t) for k, t in probes],
                       "scans of gnp(16, 0.9, 1) at gamma - 1")
        assert found == [None] * len(probes)

    def test_remaining_prune_settles_a_dense_probe(self):
        # gnp(40, 0.8, 1) at k = 5 has a block of 7 vertices and none of 6; the probe at 6
        # takes about 14 ms, and about 1 s without the prune on a vertex whose demand
        # exceeds the vertices still to take
        g = gnp(40, 0.8, 1)
        found = within(0.3, lambda: kjoin_decomposition_exists(g, 5, 6), "scan of gnp(40, 0.8, 1) at k = 5, t = 6")
        assert found is None
        assert kjoin_decomposition_exists(g, 5, 7) is not None

    @pytest.mark.parametrize("n", range(6, 13))
    def test_every_size_against_sets(self, n):
        # the answer at every t against all subsets, on seeded G(n, p) at k = 1-3
        for p, seed in product((0.3, 0.5, 0.7, 0.9), (1, 2)):
            g = gnp(n, p, seed)
            for k in range(1, min(3, g.min_degree + 1) + 1):
                sizes = block_sizes_by_sets(g, k)
                for t in range(k - 1, n + 1):
                    found = kjoin_decomposition_exists(g, k, t)
                    assert (found is not None) == (t in sizes), (n, p, seed, k, t)
                    if found is not None:
                        assert len(set(found)) == t and is_ktuple_dominating(g, found, k)

    @given(graphs(max_n=8), st.integers(1, 2), st.sampled_from(["closed", "open"]), st.integers(0, 255))
    @settings(deadline=None)
    def test_first_hit_finds_a_minimum_set_avoiding_the_banned(self, g, k, mode, banned):
        # the search d_xk's minimum-set rule runs, at gamma, against plain enumeration
        if g.min_degree < (k - 1 if mode == "closed" else k):
            return
        banned &= (1 << g.n) - 1
        size = gamma_xk(g, k, mode).value
        valid = is_ktuple_dominating if mode == "closed" else is_ktuple_total_dominating
        found = domination._first_set(g, k, mode, size, banned)
        free = [v for v in range(g.n) if not banned >> v & 1]
        assert (found is not None) == any(valid(g, s, k) for s in combinations(free, size))
        if found is not None:
            members = [v for v in range(g.n) if found >> v & 1]
            assert len(members) == size and not found & banned and valid(g, members, k)

    @pytest.mark.parametrize("seed", range(4))
    def test_first_set_against_enumeration(self, seed):
        # at every size t, in both modes and with a random banned mask: None exactly when no
        # valid set of t vertices avoids the banned, otherwise such a set
        rng = random.Random(seed)
        for _ in range(25):
            n = rng.randint(1, 10)
            g = gnp(n, rng.choice((0.3, 0.5, 0.7, 0.9)), rng.randrange(10**6))
            mode = rng.choice(("closed", "open"))
            k = rng.randint(1, 3)
            if g.min_degree < (k - 1 if mode == "closed" else k):
                continue
            valid = is_ktuple_dominating if mode == "closed" else is_ktuple_total_dominating
            banned = rng.getrandbits(n) & rng.getrandbits(n)
            sizes = {mask.bit_count() for mask in range(1 << n) if not mask & banned and valid(g, bit_list(mask), k)}
            for t in range(n + 1):
                found = domination._first_set(g, k, mode, t, banned)
                case = (n, mode, k, banned, t)
                assert (found is not None) == (t in sizes), case
                if found is not None:
                    assert found.bit_count() == t and not found & banned and valid(g, bit_list(found), k), case

    @pytest.mark.parametrize("g, k, mode, banned", [
        (cycle(6), 2, "closed", 0b11),  # N[0] = {5, 0, 1} keeps one free vertex of the two it needs
        (cycle(6), 1, "closed", 0b100011),  # N[0] keeps none
        (complete(5), 3, "closed", 0b111),  # every N[v] keeps two of the three
        (cycle(8), 2, "open", 0b10),  # N(0) = {7, 1} and N(2) = {1, 3} keep one of their two
    ], ids=["C6 k=2", "C6 k=1", "K5 k=3", "C8 open k=2"])
    def test_banned_vertices_count_against_slack(self, g, k, mode, banned):
        # each slack starts from the unbanned cover vertices, so a vertex that keeps fewer than
        # k of them leaves no set of any size; the root is pruned on its negative slack, which
        # also keeps the search from branching on a vertex with no free cover vertex left
        assert any((c & ~banned).bit_count() < k for c in g.covers(mode))
        assert [domination._first_set(g, k, mode, t, banned) for t in range(g.n + 1)] == [None] * (g.n + 1)

    def test_size_bounds_validated(self):
        with pytest.raises(ValueError, match="at least"):
            kjoin_decomposition_exists(complete(4), 3, 1)
        with pytest.raises(ValueError, match="exceeds"):
            kjoin_decomposition_exists(complete(4), 2, 5)

    def test_gate_checked_before_size(self):
        # K2 at k=3 admits no set of any size: minimum degree 1 < k-1
        with pytest.raises(DegreeGateError):
            kjoin_decomposition_exists(complete(2), 3, 2)

    @pytest.mark.parametrize("g, k, found", PINNED_SCANS)
    def test_witness_at_every_size_is_pinned(self, g, k, found):
        # found[i] is the scan's answer at t = k - 1 + i
        assert [kjoin_decomposition_exists(g, k, t) for t in range(k - 1, g.n + 1)] == found

    def test_minimum_size_equals_gamma(self):
        for g, k, mode, expected in FROZEN_GAMMA:
            if mode == "closed":
                assert exact_size_minimum(g, k) == expected, (g.n, k)

    @given(graphs(max_n=6), st.integers(1, 3))
    @settings(max_examples=200)
    def test_minimum_size_equals_gamma_random(self, g, k):
        if g.min_degree < k - 1:
            return
        assert exact_size_minimum(g, k) == gamma_xk(g, k).value
