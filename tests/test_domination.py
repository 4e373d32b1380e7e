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
from ktdom.domination import ORACLE_VERTEX_CAP
from ktdom.graphs import bit_list
from strategies import all_graphs, graphs
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
    [(18, 0.3, 1), (20, 0.25, 2), (22, 0.2, 3), (24, 0.3, 4), (24, 0.2, 5)], "closed",
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


def _lowest(first, last):
    """The lowest-id witnesses the scan returns at t = first..last."""
    return [tuple(range(t)) for t in range(first, last + 1)]


# (graph, k, the exact-size scan's answer at each t from k - 1 to n)
PINNED_SCANS = [
    pytest.param(
        cycle(13), 1,
        [None] * 5
        + [(0, 1, 4, 7, 10), (0, 1, 2, 4, 7, 10), (0, 1, 2, 3, 4, 7, 10), (0, 1, 2, 3, 4, 5, 7, 10)]
        + [(0, 1, 2, 3, 4, 5, 6, 7, 10), (0, 1, 2, 3, 4, 5, 6, 7, 8, 10)]
        + _lowest(11, 13),
        id="C13 k=1",
    ),
    pytest.param(gnp(12, 0.6, 3), 1, [None, None, (0, 4), (0, 1, 4)] + _lowest(4, 12), id="gnp(12,0.6,3) k=1"),
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

    @given(graphs(max_n=8), st.integers(1, 2), st.sampled_from(["closed", "open"]), st.integers(0, 255))
    @settings(deadline=None)
    def test_first_hit_finds_a_minimum_set_avoiding_the_banned(self, g, k, mode, banned):
        # the search d_xk's minimum-set rule relies on, against plain enumeration
        if g.min_degree < (k - 1 if mode == "closed" else k):
            return
        banned &= (1 << g.n) - 1
        size = gamma_xk(g, k, mode).value
        valid = is_ktuple_dominating if mode == "closed" else is_ktuple_total_dominating
        found, _ = domination._smaller_set(g, k, mode, size + 1, banned, True)
        free = [v for v in range(g.n) if not banned >> v & 1]
        assert (found is not None) == any(valid(g, s, k) for s in combinations(free, size))
        if found is not None:
            members = [v for v in range(g.n) if found >> v & 1]
            assert len(members) == size and not found & banned and valid(g, members, k)

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
        # None exactly when no valid set avoiding the banned has fewer than bound
        # vertices; otherwise such a set, and a minimum one when first is off
        rng = random.Random(seed)
        for _ in range(40):
            n = rng.randint(1, 10)
            g = gnp(n, rng.choice((0.3, 0.5, 0.7, 0.9)), rng.randrange(10**6))
            mode = rng.choice(("closed", "open"))
            k = rng.randint(1, 3)
            if g.min_degree < (k - 1 if mode == "closed" else k):
                continue
            valid = is_ktuple_dominating if mode == "closed" else is_ktuple_total_dominating
            banned = rng.getrandbits(n) & rng.getrandbits(n)
            bound = rng.randint(0, n + 1)
            sizes = [
                mask.bit_count() for mask in range(1 << n) if not mask & banned and valid(g, bit_list(mask), k)
            ]
            least = min(sizes, default=None)
            for first in (False, True):
                found, _ = domination._smaller_set(g, k, mode, bound, banned, first)
                case = (n, mode, k, banned, bound, first)
                if least is None or least >= bound:
                    assert found is None, case
                    continue
                assert found is not None and not found & banned, case
                assert found.bit_count() < bound and valid(g, bit_list(found), k), case
                if not first:
                    assert found.bit_count() == least, case


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

    def test_negative_slack_prune_settles_a_sparse_probe(self):
        # C26 at k = 2 has gamma = 18; the probe at 17 takes about 16 ms, and about 13 s
        # without the prune on a vertex that too few undecided neighbours can still serve
        found = within(1, lambda: kjoin_decomposition_exists(cycle(26), 2, 17), "scan of C26 at k = 2, t = 17")
        assert found is None

    def test_remaining_prune_settles_dense_probes(self):
        # the probes at gamma - 1 that C11 makes on a dense graph within its scan cap take
        # under a millisecond in all, and about 0.23 s without the prune on a vertex whose
        # demand exceeds the vertices still to take
        g = gnp(16, 0.9, 1)
        probes = [(k, gamma_xk(g, k).value - 1) for k in range(5, 12)]
        found = within(0.025, lambda: [kjoin_decomposition_exists(g, k, t) for k, t in probes],
                       "scans of gnp(16, 0.9, 1) at gamma - 1")
        assert found == [None] * len(probes)

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
