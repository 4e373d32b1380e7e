"""Maximum k-tuple domatic partitions: exact solver, oracle, construction."""

from __future__ import annotations

import inspect
import signal
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ktdom import (
    DegreeGateError,
    DomaticPartition,
    Graph,
    OracleCapError,
    clique_chain,
    complement,
    complete,
    complete_bipartite,
    cycle,
    d_oracle,
    d_xk,
    gamma_xk,
    gnp,
    is_domatic_partition,
    is_ktuple_dominating,
    kjoin_decomposition_exists,
    path,
    random_regular,
    zelinka_partition,
)
from ktdom import domatic, domination
from ktdom.domatic import ORACLE_PARTITION_CAP, zelinka_floor
from ktdom.domination import GammaResult, satisfies_by_cases, vertex_mask
from partition_count import partition_counts
from strategies import graphs

# oracle-derived pairs (graph, k, mode, value); each row is asserted against
# both the solver and the brute-force partition enumeration
FROZEN_D = [
    (complete(6), 2, "closed", 3),
    (complete(7), 3, "closed", 2),
    (complete(4), 2, "closed", 2),
    (complete_bipartite(2, 2), 2, "closed", 1),
    (complete_bipartite(4, 4), 2, "closed", 2),
    (complete_bipartite(4, 4), 2, "open", 2),
    (clique_chain(2), 2, "closed", 2),
    (clique_chain(2), 2, "open", 1),
    (complete(3), 1, "closed", 3),
    (complete(3), 1, "open", 1),
    (cycle(4), 1, "closed", 2),
    (cycle(4), 1, "open", 2),
    (path(4), 1, "closed", 2),
]


def certified(g, k, mode, value):
    """True when the inclusion-exclusion count proves value the maximum:
    some partition into value classes, none into value + 1."""
    at_value, above = partition_counts(g, k, mode, value)
    return at_value > 0 and above == 0


def gated(g, k, mode):
    return g.min_degree < (k - 1 if mode == "closed" else k)


def within(seconds, solve, label):
    """solve() under an alarm, so that a slow search fails as a stall."""

    def out_of_time(signum, frame):
        raise TimeoutError

    previous = signal.signal(signal.SIGALRM, out_of_time)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        return solve()
    except TimeoutError:
        # fail outside the handler: chained to the alarm, the report can hold a traceback
        # entry with no line number, which pytest cannot render (INTERNALERROR on 3.11)
        pass
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    pytest.fail(f"{label} undecided after {seconds} s")


def minimum_set_rule(g, k, mode):
    """The rule as d_xk applies it: (largest count left open, slack-0 partition or None, top)."""
    gamma = gamma_xk(g, k, mode)
    top = domatic._search_bounds(g, k, mode, gamma.value).ceiling
    left, classes = domatic._minimum_set_rule(g, k, mode, top, gamma.value, vertex_mask(g, gamma.witness))
    return left, None if classes is None else domatic._partition(classes, k, mode), top


@pytest.mark.parametrize("g, k, mode, expected", FROZEN_D)
def test_frozen_values_match_solver_and_oracle(g, k, mode, expected):
    assert d_xk(g, k, mode).value == expected
    assert d_oracle(g, k, mode).value == expected


class TestPartitionPredicate:
    def test_valid_partition(self):
        p = DomaticPartition(((0, 2), (1, 3)), 1, "closed")
        assert is_domatic_partition(cycle(4), p)

    def test_open_mode_is_stricter(self):
        # {0,2} has no edge into itself in C4, so open mode rejects it
        p = DomaticPartition(((0, 2), (1, 3)), 1, "open")
        assert not is_domatic_partition(cycle(4), p)
        assert is_domatic_partition(cycle(4), DomaticPartition(((0, 1), (2, 3)), 1, "open"))

    def test_incomplete_cover_is_false(self):
        p = DomaticPartition(((0, 1),), 1, "closed")
        assert not is_domatic_partition(cycle(4), p)

    def test_empty_class_is_false(self):
        p = DomaticPartition(((0, 1, 2, 3), ()), 1, "closed")
        assert not is_domatic_partition(cycle(4), p)

    def test_bad_k_raises_before_the_cover_test(self):
        for classes in (((0, 1),), ((0, 1), (2, 3))):
            with pytest.raises(ValueError, match="k must be a positive integer"):
                is_domatic_partition(cycle(4), DomaticPartition(classes, 0, "closed"))

    def test_overlap_raises(self):
        p = DomaticPartition(((0, 1), (1, 2, 3)), 1, "closed")
        with pytest.raises(ValueError, match="overlap"):
            is_domatic_partition(cycle(4), p)

    def test_repeated_vertex_raises(self):
        for classes, mode in [(((0, 0, 1), (2, 3)), "closed"), (((0, 1), (2, 3, 3)), "open")]:
            with pytest.raises(ValueError, match="twice"):
                is_domatic_partition(cycle(4), DomaticPartition(classes, 1, mode))

    def test_foreign_vertex_raises(self):
        p = DomaticPartition(((0, 1, 2, 9),), 1, "closed")
        with pytest.raises(ValueError, match="outside"):
            is_domatic_partition(cycle(4), p)

    def test_bad_mode_raises(self):
        with pytest.raises(ValueError, match="mode"):
            is_domatic_partition(cycle(4), DomaticPartition(((0, 1, 2, 3),), 1, "both"))


class TestDomaticSolver:
    @given(graphs(max_n=6), st.integers(1, 3), st.sampled_from(["closed", "open"]))
    @settings(max_examples=250, deadline=None)
    def test_matches_oracle(self, g, k, mode):
        need = k - 1 if mode == "closed" else k
        if g.min_degree < need:
            with pytest.raises(DegreeGateError):
                d_xk(g, k, mode)
            return
        assert d_xk(g, k, mode).value == d_oracle(g, k, mode).value

    @given(graphs(), st.integers(1, 3), st.sampled_from(["closed", "open"]))
    @settings(deadline=None)
    def test_witness_is_sound(self, g, k, mode):
        need = k - 1 if mode == "closed" else k
        if g.min_degree < need:
            return
        res = d_xk(g, k, mode)
        assert len(res.witness.classes) == res.value
        assert is_domatic_partition(g, res.witness)

    @given(graphs(max_n=8), st.integers(1, 3), st.sampled_from(["closed", "open"]))
    @example(Graph(8, [(0, 2), (0, 3), (1, 3), (1, 7), (2, 4), (2, 7), (3, 4), (3, 5), (4, 6), (4, 7), (5, 6),
                       (5, 7)]), 1, "closed")  # a colouring that opens the class of 3 before that of 2
    @settings(max_examples=200, deadline=None)
    def test_witness_classes_are_ordered_by_minimum(self, g, k, mode):
        # the order DomaticPartition promises, from each solver that builds one
        if gated(g, k, mode):
            return
        witnesses = [d_xk(g, k, mode).witness, d_oracle(g, k, mode).witness]
        if mode == "closed":
            witnesses.append(zelinka_partition(g, k))  # None when its floor is 0
        for p in filter(None, witnesses):
            assert all(list(cls) == sorted(set(cls)) for cls in p.classes)
            assert [cls[0] for cls in p.classes] == sorted(cls[0] for cls in p.classes)

    @given(graphs(), st.integers(1, 3), st.sampled_from(["closed", "open"]))
    @settings(deadline=None)
    def test_bounds_frame_the_value(self, g, k, mode):
        if g.min_degree < (k - 1 if mode == "closed" else k):
            return
        results = [d_xk(g, k, mode)]
        if g.n <= 6:
            results.append(d_oracle(g, k, mode))
        for res in results:
            b = res.bounds_used
            assert b.ceiling == min(b.degree_ceiling, b.gamma_ceiling)
            assert 1 <= res.value <= b.ceiling
            if mode == "closed":
                assert zelinka_floor(g, k) <= res.value
            assert "ceiling" not in b.to_dict()
        assert all(res.bounds_used == results[0].bounds_used for res in results)

    @given(graphs(), st.integers(1, 3))
    @settings(deadline=None)
    def test_total_at_most_closed(self, g, k):
        if g.min_degree < k:
            return
        assert d_xk(g, k, "open").value <= d_xk(g, k).value

    @given(graphs(min_n=2), st.integers(1, 2))
    @settings(deadline=None)
    def test_antitone_in_k(self, g, k):
        if g.min_degree < k:  # gate for k + 1 in closed mode
            return
        assert d_xk(g, k + 1).value <= d_xk(g, k).value

    @given(graphs(), st.integers(1, 3))
    @settings(deadline=None)
    def test_merging_two_classes_stays_valid(self, g, k):
        if g.min_degree < k - 1:
            return
        res = d_xk(g, k)
        if res.value < 2:
            return
        classes = list(res.witness.classes)
        merged = tuple(sorted(classes[0] + classes[1]))
        p = DomaticPartition((merged, *classes[2:]), k, "closed")
        assert is_domatic_partition(g, p)

    def test_precomputed_gamma_shortcut(self):
        g = complete(6)
        res = d_xk(g, 2, gamma=gamma_xk(g, 2))
        assert res.value == 3

    def test_precomputed_gamma_must_match_k_and_mode(self):
        g = cycle(6)
        with pytest.raises(ValueError, match="gamma result is for k=2"):
            d_xk(g, 1, gamma=gamma_xk(g, 2))
        with pytest.raises(ValueError, match="mode='open'"):
            d_xk(g, 1, gamma=gamma_xk(g, 1, "open"))
        assert d_xk(g, 1, gamma=gamma_xk(g, 1)).value == 3
        # a minimum of another graph: its witness (1, 5) does not dominate this one
        with pytest.raises(ValueError, match=r"gamma witness \(1, 5\) is not a valid set of 2 vertices"):
            d_xk(gnp(6, 0.6, 8), 1, gamma=gamma_xk(gnp(6, 0.6, 1001), 1))
        with pytest.raises(ValueError, match="is not a valid set of 2 vertices"):
            d_xk(g, 1, gamma=GammaResult(2, (0, 2, 4), "closed", 1, 0))  # valid, but of 3 vertices

    def test_solved_gamma_is_checked_on_the_same_path(self, monkeypatch):
        # a witness that d_xk solved itself passes the check that a handed-in one passes
        monkeypatch.setattr(domatic, "gamma_xk", lambda g, k, mode: GammaResult(2, (1, 5), mode, k, 0))
        with pytest.raises(ValueError, match=r"gamma witness \(1, 5\) is not a valid set of 2 vertices"):
            d_xk(gnp(6, 0.6, 8), 1)

    def test_value_at_the_zelinka_floor_is_searched(self):
        # K7 at k = 2: the floor and the ceiling are both 3, and the witness
        # comes from the partition search, not from the balanced blocks
        res = d_xk(complete(7), 2)
        assert (zelinka_floor(complete(7), 2), res.bounds_used.ceiling, res.value) == (3, 3, 3)
        assert is_domatic_partition(complete(7), res.witness)

    def test_fallback_when_nothing_above_one(self):
        res = d_xk(path(4), 2)  # delta = 1, ceiling = 1
        assert res.value == 1
        assert res.witness.classes == ((0, 1, 2, 3),)

    def test_gate(self):
        with pytest.raises(DegreeGateError):
            d_xk(path(4), 3)
        with pytest.raises(DegreeGateError):
            d_xk(path(4), 2, "open")


class TestFailFirstSearch:
    @pytest.mark.parametrize(
        "g, mode, expected",
        [
            # pairs of cycle neighbours such as {0,1},{2,3},... reach the ceiling
            (complement(cycle(16)), "closed", 8),
            (complement(cycle(17)), "closed", 8),
            (gnp(16, 0.9, 7), "closed", 11),
            (gnp(16, 0.9, 7), "open", 8),
        ],
        ids=["co-C16", "co-C17", "gnp(16,0.9,7)-closed", "gnp(16,0.9,7)-open"],
    )
    def test_dense_values(self, g, mode, expected):
        res = d_xk(g, 1, mode)
        assert res.value == expected
        assert is_domatic_partition(g, res.witness)
        if g.n <= 16:  # co-C17 stays solver-checked: its count would take about twice as long
            assert certified(g, 1, mode, expected)

    @pytest.mark.parametrize("n", [11, 12, 13, 14])
    @pytest.mark.parametrize("p", [0.5, 0.7])
    def test_certified_by_partition_count(self, n, p):
        # beyond the partition oracle's cap: the inclusion-exclusion count is the reference
        for seed in (1, 2, 3):
            g = gnp(n, p, seed)
            for k in (1, 2):
                for mode in ("closed", "open"):
                    if not gated(g, k, mode):
                        assert certified(g, k, mode, d_xk(g, k, mode).value), (seed, k, mode)

    @pytest.mark.parametrize("k", [1, 2])
    @pytest.mark.parametrize("mode", ["closed", "open"])
    def test_certified_at_sixteen_vertices(self, k, mode):
        g = gnp(16, 0.7, 1)
        assert certified(g, k, mode, d_xk(g, k, mode).value)

    def test_complement_of_sparse_gnp_is_decided(self):
        # the complement solve inside verify_all(gnp(24, 0.3, 7), 1); a slow search shows as a stall
        g = complement(gnp(24, 0.3, 7))
        res = within(30, lambda: d_xk(g, 1), "d_xk(complement(gnp(24, 0.3, 7)), 1)")
        assert res.value == 10
        assert is_domatic_partition(g, res.witness)

    def test_dense_open_k2_reaches_its_ceiling(self):
        # 8 classes are found at the ceiling in well under a second, so a slow find shows as a stall
        g = gnp(28, 0.8, 7)
        res = within(3, lambda: d_xk(g, 2, "open"), "d_xk(gnp(28, 0.8, 7), 2, 'open')")
        assert res.value == res.bounds_used.ceiling == 8
        assert is_domatic_partition(g, res.witness)

    @given(graphs(max_n=8), st.integers(1, 3), st.sampled_from(["closed", "open"]))
    @settings(max_examples=200, deadline=None)
    def test_each_count_is_found_exactly_up_to_the_oracle(self, g, k, mode):
        # called directly: inside d_xk the minimum-set rule settles most top counts first
        if gated(g, k, mode):
            return
        gamma = gamma_xk(g, k, mode).value
        d = d_oracle(g, k, mode).value
        for c in range(2, domatic.degree_ceiling(g.min_degree, k, mode) + 1):
            classes = domatic._find_partition(g, k, mode, c, gamma)
            if c > d:
                assert classes is None, c
            else:
                assert classes is not None, c
                p = domatic._partition(classes, k, mode)
                assert len(p.classes) == c and is_domatic_partition(g, p), c

    # frozen witnesses of colourings that backtrack, each row followed by the colourings the
    # search makes, not counting the moves it refuses before making them: a change to the order
    # in which the search visits its nodes moves them
    @pytest.mark.parametrize("g, k, mode, classes", [
        (gnp(16, 0.8, 7), 2, "closed", ((0, 1, 12, 14), (2, 3, 5), (4, 13, 15), (6, 7, 10), (8, 9, 11))),  # 105
        (gnp(14, 0.9, 7), 2, "closed", ((0, 2), (1, 7, 9), (3, 5), (4, 6, 11), (8, 10), (12, 13))),  # 106
        (gnp(14, 0.8, 7), 2, "closed", ((0, 1, 2), (3, 8), (4, 5, 9), (6, 10, 12), (7, 11, 13))),  # 56
        (gnp(20, 0.7, 7), 2, "open",
         ((0, 1, 2, 17), (3, 6, 7), (4, 14, 15, 18), (5, 11, 12, 16, 19), (8, 9, 10, 13))),  # 42
        # of these rows, the class-need test refuses the most moves here (145 of the 837 refused);
        # making and undoing each refused move would take 1,059 colourings
        (gnp(12, 0.7, 1000016), 1, "open", ((0, 7), (1, 2), (3, 6, 10), (4, 5), (8, 9, 11))),  # 222
        # at k = 3 each move shifts three hit levels of its class on the cover
        (gnp(16, 0.85, 7), 3, "closed", ((0, 1, 5, 7), (2, 3, 10, 12), (4, 6, 8, 15), (9, 11, 13, 14))),  # 334
        # 4 classes refuted in 323, then 3 found in 13
        (gnp(14, 0.95, 2), 3, "closed", ((0, 1, 2, 3, 12, 13), (4, 8, 9, 10), (5, 6, 7, 11))),  # 336
    ], ids=["gnp(16,0.8,7)-closed", "gnp(14,0.9,7)-closed", "gnp(14,0.8,7)-closed", "gnp(20,0.7,7)-open",
            "gnp(12,0.7,1000016)-open", "gnp(16,0.85,7)-k3-closed", "gnp(14,0.95,2)-k3-closed"])
    def test_frozen_backtracking_witness(self, g, k, mode, classes):
        res = d_xk(g, k, mode)
        assert res.witness.classes == classes
        assert is_domatic_partition(g, res.witness)

    def test_frozen_colouring_witness(self):
        # 5 classes at slack 1, which exact cover decides inside d_xk, so the colouring is called directly
        g = gnp(16, 0.8, 7)
        p = domatic._partition(domatic._find_partition(g, 2, "open", 5, 3), 2, "open")
        assert p.classes == ((0, 2, 15), (1, 7, 8, 10), (3, 4, 5), (6, 12, 14), (9, 11, 13))  # 141
        assert is_domatic_partition(g, p)

    def test_search_depth_is_not_bounded_by_recursion(self):
        # 60 vertices are coloured one below the other on an explicit stack
        g = complement(cycle(60))
        gamma = gamma_xk(g, 1)
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(len(inspect.stack(0)) + 30)
        try:
            res = d_xk(g, 1, gamma=gamma)
        finally:
            sys.setrecursionlimit(limit)
        assert res.value == 30


class TestMinimumSetRule:
    """d_xk settles its top counts from the minimum sets: a small hitting set
    refutes, and at slack 0 a packing is the partition."""

    def test_gnp_20_is_decided_by_its_universal_vertices(self):
        # at k = 1 the minimum sets are the 5 universal vertices, and 13 classes on 20 vertices
        # would need 13 * 2 - 20 = 6 singleton classes
        g = gnp(20, 0.9, 1)
        assert sum(d == g.n - 1 for d in g.deg) == 5
        res = within(5, lambda: d_xk(g, 1), "d_xk(gnp(20, 0.9, 1), 1)")
        assert res.value == 12
        assert is_domatic_partition(g, res.witness)

    @pytest.mark.parametrize(
        "g, k, mode, expected",
        [(gnp(24, 0.9, 7), 1, "closed", 14), (random_regular(24, 3, 2), 1, "open", 2)],
        ids=["gnp(24,0.9,7)", "rr3(24,2)-open"],
    )
    def test_stalls_are_decided(self, g, k, mode, expected):
        res = within(5, lambda: d_xk(g, k, mode), f"d_xk on {g.n} vertices, k={k}, {mode}")
        assert res.value == expected
        assert is_domatic_partition(g, res.witness)

    def test_a_lone_universal_vertex_refutes_down_to_d(self):
        # K8 minus a perfect matching, plus a universal vertex 8: the only minimum set is {8},
        # so H = {8} refutes every count above (9 + 1) // 2 = 5, and {8} with four
        # non-matched pairs reaches it
        g = Graph(9, [(u, v) for u in range(9) for v in range(u + 1, 9) if v != u + 1 or u % 2])
        assert minimum_set_rule(g, 1, "closed") == (5, None, 8)
        assert d_xk(g, 1).value == 5

    def test_slack_zero_packing_is_the_witness(self):
        # C6 at k = 1: gamma = 2 and three classes, so the three disjoint minimum sets are the partition
        left, packing, top = minimum_set_rule(cycle(6), 1, "closed")
        assert (left, top) == (3, 3)
        assert d_xk(cycle(6), 1).witness.classes == packing.classes == ((0, 3), (1, 4), (2, 5))

    def test_slack_one_packing_and_its_rest_are_the_witness(self):
        # K7 at k = 2: gamma = 2 and three classes at slack 1, so two disjoint pairs and the
        # three vertices they leave, which pass the test, are the partition
        left, packing, top = minimum_set_rule(complete(7), 2, "closed")
        assert (left, top) == (3, 3)
        assert d_xk(complete(7), 2).witness.classes == packing.classes == ((0, 1), (2, 3), (4, 5, 6))

    @pytest.mark.parametrize("mode", ["closed", "open"])
    def test_one_class_is_never_a_packing(self, mode):
        # P4 at k = 1 has gamma = 2 < 4, so gamma's witness alone covers only part of V: at
        # top = 1 the rule must answer with no classes, not pass the witness off as a partition
        g = path(4)
        gamma = gamma_xk(g, 1, mode)
        assert gamma.value < g.n
        assert domatic._minimum_set_rule(g, 1, mode, 1, gamma.value, vertex_mask(g, gamma.witness)) == (1, None)

    def test_slack_zero_packing_decides_a_dense_ceiling(self):
        # gamma = 2 on 28 vertices, so 14 classes are 14 disjoint minimum sets: the packing
        # returns them in about a millisecond, and the colouring search alone at 14 classes
        # ran past 30 s, so a lost packing shows as a stall
        g = gnp(28, 0.8, 2)
        res = within(2, lambda: d_xk(g, 1, "closed"), "d_xk(gnp(28, 0.8, 2), 1, 'closed')")
        assert res.value == 14
        assert is_domatic_partition(g, res.witness)

    def test_fail_first_searches_settle_sparse_rules(self):
        # the rule's searches for a minimum set avoiding a mask branch fail-first: rr3(24,2)
        # open (top 3, gamma 8) is refuted at 3 and rr4(42,1) closed (top 4, gamma 10) is left
        # open at 4 in about 3 ms together, where taking the vertices in id order took about
        # 2.5 and 77 ms; the largest reversal seen, random_regular(42, 4, 4) closed, went from 1.0
        # to 15.4 ms
        sparse = random_regular(24, 3, 2)
        sparse_gamma = gamma_xk(sparse, 1, "open")
        # gamma_xk takes about 1 s on rr4(42,1), so its witness is pinned here; the exact-size
        # probe at 9 proves it minimum in about 30 ms
        quartic = random_regular(42, 4, 1)
        witness = (0, 1, 4, 5, 9, 11, 21, 24, 27, 29)
        assert is_ktuple_dominating(quartic, witness, 1) and kjoin_decomposition_exists(quartic, 1, 9) is None
        rules = [(sparse, "open", 3, sparse_gamma.value, vertex_mask(sparse, sparse_gamma.witness)),
                 (quartic, "closed", 4, len(witness), vertex_mask(quartic, witness))]
        left = within(0.03, lambda: [domatic._minimum_set_rule(g, 1, mode, top, size, mask)
                                     for g, mode, top, size, mask in rules],
                      "the minimum-set rule on rr3(24,2) open and rr4(42,1) closed")
        assert left == [(2, None), (4, None)]

    @given(graphs(max_n=8), st.integers(1, 2), st.sampled_from(["closed", "open"]))
    @settings(max_examples=300, deadline=None)
    @example(complete(7), 2, "closed")  # a slack-1 exit
    def test_refuted_counts_lie_above_the_oracle(self, g, k, mode):
        if gated(g, k, mode):
            return
        left, packing, top = minimum_set_rule(g, k, mode)
        assert d_oracle(g, k, mode).value <= left <= top
        if packing is not None:
            # slack 0: top minimum sets; slack 1: top - 1 of them and one valid class of gamma + 1
            size = gamma_xk(g, k, mode).value
            slack = g.n - top * size
            assert slack <= 1
            assert sorted(map(len, packing.classes)) == [size] * (top - slack) + [size + 1] * slack
            assert is_domatic_partition(g, packing)

    @pytest.mark.parametrize("n", [11, 12, 13, 14])
    @pytest.mark.parametrize("p", [0.5, 0.7])
    def test_refuted_counts_have_no_partition(self, n, p):
        # the graphs of test_certified_by_partition_count; each call counts c and c + 1
        for seed in (1, 2, 3):
            g = gnp(n, p, seed)
            for k in (1, 2):
                for mode in ("closed", "open"):
                    if not gated(g, k, mode):
                        left, _, top = minimum_set_rule(g, k, mode)
                        for c in range(left + 1, top + 1, 2):
                            assert partition_counts(g, k, mode, c) == (0, 0), (seed, k, mode, c)


def cover_counts(g, k, mode):
    """The counts that exact cover decides, c >= 3 at slack n - c * gamma <= 1, with the
    minimum sets and the cover's classes at each: [(c, family, classes or None)]."""
    size = gamma_xk(g, k, mode).value
    family = domatic._minimum_sets(g, k, mode, size)
    counts = [c for c in range(3, g.n // size + 1) if g.n - c * size <= 1]
    return [(c, family, domatic._exact_cover(g, k, mode, c, family)) for c in counts]


def assert_cover_partition(g, k, mode, c, family, classes):
    """A cover's classes: c of them, each passing the literal test, every class but at most
    one of them a minimum set, and a partition of V."""
    p = domatic._partition(classes, k, mode)
    assert len(p.classes) == c
    assert all(satisfies_by_cases(g.adj, sum(1 << v for v in cls), k, mode) for cls in p.classes)
    assert sum(sum(1 << v for v in cls) not in family for cls in p.classes) <= 1
    assert is_domatic_partition(g, p)


class TestExactCover:
    """d_xk decides each count c >= 3 at slack <= 1 by exact cover over the minimum sets."""

    # n = 11-16; each call of partition_counts counts c and c + 1
    @pytest.mark.parametrize("n, p", [(11, 0.9), (12, 0.9), (13, 0.9), (14, 0.9), (15, 0.7), (16, 0.5)])
    def test_matches_partition_count(self, n, p):
        g = gnp(n, p, 1)
        decided = 0
        for k in (1, 2):
            for mode in ("closed", "open"):
                if gated(g, k, mode):
                    continue
                for c, family, classes in cover_counts(g, k, mode):
                    assert (classes is not None) == (partition_counts(g, k, mode, c)[0] > 0), (k, mode, c)
                    if classes is not None:
                        assert_cover_partition(g, k, mode, c, family, classes)
                    decided += 1
        assert decided

    @given(graphs(max_n=8), st.integers(1, 2), st.sampled_from(["closed", "open"]))
    @settings(max_examples=300, deadline=None)
    @example(complete(7), 2, "closed")  # slack 1 at three classes
    def test_matches_the_oracle(self, g, k, mode):
        if gated(g, k, mode):
            return
        d = d_oracle(g, k, mode).value
        for c, family, classes in cover_counts(g, k, mode):
            assert (classes is not None) == (c <= d), c
            if classes is not None:
                assert_cover_partition(g, k, mode, c, family, classes)

    # rows the colouring search took seconds or more on, or did not finish in 60 s
    @pytest.mark.parametrize("g, k, mode, expected", [
        (gnp(28, 0.8, 2), 1, "open", 14),
        (gnp(28, 0.8, 7), 2, "closed", 9),
        (gnp(36, 0.9, 4), 2, "open", 12),
        (gnp(40, 0.85, 1), 2, "open", 13),
        (gnp(36, 0.85, 2), 2, "closed", 12),
    ], ids=["gnp(28,0.8,2)-open", "gnp(28,0.8,7)-closed", "gnp(36,0.9,4)-open", "gnp(40,0.85,1)-open",
            "gnp(36,0.85,2)-closed"])
    def test_stalls_are_decided(self, g, k, mode, expected):
        res = within(2, lambda: d_xk(g, k, mode), f"d_xk on {g.n} vertices, k={k}, {mode}")
        assert res.value == expected
        assert is_domatic_partition(g, res.witness)

    def test_frozen_witness(self):
        # 5 classes at slack 1: the greedy packing leaves an invalid rest, and the cover finds 4
        # minimum sets plus a valid class of 4; a change to the cover's order moves the witness
        g = gnp(16, 0.8, 7)
        res = d_xk(g, 2, "open")
        assert res.witness.classes == ((0, 7, 10), (1, 12, 14, 15), (2, 4, 8), (3, 5, 6), (9, 11, 13))
        assert is_domatic_partition(g, res.witness)

    def test_listing_above_the_cap_is_refused(self):
        # C30 at k = 1 has gamma = 10, and there are comb(30, 10) = 30,045,015 such subsets
        assert domatic._minimum_sets(cycle(30), 1, "closed", 10) is None
        assert domatic._minimum_sets(cycle(30), 1, "closed", 2) is not None

    # the minimum-set rule is switched off, so that the descent starts at the ceiling
    @pytest.mark.parametrize("g, k, cap, coloured", [
        (complete(7), 2, domatic.COVER_CAP, []),  # 3 classes at slack 1 go to exact cover
        (complete(7), 2, 20, [3]),  # but not when comb(7, 2) = 21 pairs exceed the cap
        (cycle(4), 1, domatic.COVER_CAP, [2]),  # 2 classes at slack 0 stay with the colouring
    ], ids=["cover", "above-the-cap", "two-classes"])
    def test_counts_the_colouring_decides(self, g, k, cap, coloured, monkeypatch):
        monkeypatch.setattr(domatic, "_minimum_set_rule", lambda g, k, mode, top, size, witness: (top, None))
        monkeypatch.setattr(domatic, "COVER_CAP", cap)
        searched = []
        colouring = domatic._find_partition
        monkeypatch.setattr(domatic, "_find_partition", lambda *args: searched.append(args[3]) or colouring(*args))
        assert d_xk(g, k).value == d_oracle(g, k).value
        assert searched == coloured

    def test_search_depth_is_not_bounded_by_recursion(self):
        # 30 pairs of the complement of C60 are placed one below the other on an explicit stack
        g = complement(cycle(60))
        family = domatic._minimum_sets(g, 1, "closed", 2)
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(len(inspect.stack(0)) + 20)
        try:
            classes = domatic._exact_cover(g, 1, "closed", 30, family)
        finally:
            sys.setrecursionlimit(limit)
        assert_cover_partition(g, 1, "closed", 30, family, classes)


class TestDomaticOracle:
    def test_cap_is_enforced(self, monkeypatch):
        monkeypatch.setattr(domination, "cases_table", lambda *args: pytest.fail("searched"))
        with pytest.raises(OracleCapError, match=f"n={ORACLE_PARTITION_CAP + 1} > cap={ORACLE_PARTITION_CAP}"):
            d_oracle(cycle(ORACLE_PARTITION_CAP + 1), 1)

    @given(graphs(), st.integers(1, 3), st.sampled_from(["closed", "open"]))
    @settings(deadline=None)
    def test_partition_count_certifies_its_value(self, g, k, mode):
        if not gated(g, k, mode):
            assert certified(g, k, mode, d_oracle(g, k, mode).value)

    # n = 8-10, above the hypothesis graphs of the test before (n <= 7)
    @pytest.mark.parametrize("n, p, seed", [(8 + i % 3, (0.5, 0.6, 0.7, 0.8, 0.9)[i % 5], i) for i in range(20)])
    def test_partition_count_certifies_seeded_values(self, n, p, seed):
        g = gnp(n, p, seed)
        for k in (1, 2):
            for mode in ("closed", "open"):
                if not gated(g, k, mode):
                    assert certified(g, k, mode, d_oracle(g, k, mode).value), (k, mode)

    def test_answers_at_the_cap(self):
        # d(C_n) at k = 1 is 3 when 3 divides n, else 2
        assert d_oracle(cycle(ORACLE_PARTITION_CAP), 1).value == (3 if ORACLE_PARTITION_CAP % 3 == 0 else 2)

    # above the cap, raised for this test only: dense G(n, p) against d_xk, and up to n = 12
    # against the partition count as well
    @pytest.mark.parametrize("n", [11, 12, 13, 14])
    def test_matches_solver_beyond_the_cap(self, n, monkeypatch):
        monkeypatch.setattr(domatic, "ORACLE_PARTITION_CAP", 14)
        for p in (0.7, 0.9):
            for seed in range(1, 7):
                g = gnp(n, p, seed)
                for k in (1, 2):
                    for mode in ("closed", "open"):
                        if gated(g, k, mode):
                            continue
                        d = d_oracle(g, k, mode).value
                        assert d == d_xk(g, k, mode).value, (p, seed, k, mode)
                        if n <= 12:
                            assert certified(g, k, mode, d), (p, seed, k, mode)

    # the packing's witness: the first largest packing of minimal valid sets by lowest vertex,
    # its leftover vertices joined to the first class; the n = 10 rows are cap instances
    @pytest.mark.parametrize("g, k, mode, classes", [
        (cycle(6), 1, "closed", ((0, 3), (1, 4), (2, 5))),
        (gnp(10, 0.7, 19), 1, "closed", ((0, 2, 7, 8), (1,), (3, 5), (4, 6), (9,))),
        (gnp(10, 0.7, 19), 1, "open", ((0, 2, 4), (1, 5), (3, 6, 7), (8, 9))),
        (gnp(10, 0.8, 3), 1, "open", ((0, 1, 6, 8), (2, 4), (3, 7), (5, 9))),
        (gnp(10, 0.7, 13), 1, "closed", ((0, 1), (2, 5, 7), (3, 6, 9), (4, 8))),
    ])
    def test_frozen_witness_is_certified(self, g, k, mode, classes):
        result = d_oracle(g, k, mode)
        assert result.witness.classes == classes
        assert certified(g, k, mode, result.value)


class TestZelinkaConstruction:
    def test_complete_graph_blocks(self):
        p = zelinka_partition(complete(6), 2)
        assert p is not None
        assert p.classes == ((0, 1), (2, 3), (4, 5))
        assert is_domatic_partition(complete(6), p)

    def test_singleton_blocks_at_k1(self):
        p = zelinka_partition(complete(4), 1)
        assert p.classes == ((0,), (1,), (2,), (3,))

    def test_remainder_goes_to_last_block(self):
        p = zelinka_partition(complete(7), 2)
        assert p.classes == ((0, 1), (2, 3), (4, 5, 6))

    def test_vacuous_when_required_size_exceeds_n(self):
        assert zelinka_partition(cycle(5), 2) is None

    def test_single_block_when_floor_is_one(self):
        p = zelinka_partition(path(5), 1)
        assert p.classes == ((0, 1, 2, 3, 4),)

    def test_gate(self):
        with pytest.raises(DegreeGateError):
            zelinka_partition(path(4), 3)

    @given(graphs(), st.integers(1, 3))
    @settings(deadline=None)
    def test_block_count_and_validity(self, g, k):
        if g.min_degree < k - 1:
            return
        p = zelinka_partition(g, k)
        required = k * (g.n - g.min_degree)
        if required > g.n:
            assert p is None
            return
        assert len(p.classes) == g.n // required
        for cls in p.classes:
            assert is_ktuple_dominating(g, cls, k)
