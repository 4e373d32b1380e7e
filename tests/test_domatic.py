"""Maximum k-tuple domatic partitions: exact solver, oracle, construction."""

from __future__ import annotations

import inspect
import signal
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ktdom import (
    DegreeGateError,
    DomaticPartition,
    OracleCapError,
    clique_chain,
    complement,
    complete,
    complete_bipartite,
    cycle,
    d_oracle,
    d_xk,
    gamma_oracle,
    gamma_xk,
    gnp,
    is_domatic_partition,
    is_ktuple_dominating,
    path,
    zelinka_partition,
)
from ktdom import domatic
from ktdom.domatic import ORACLE_PARTITION_CAP
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

    def test_overlap_raises(self):
        p = DomaticPartition(((0, 1), (1, 2, 3)), 1, "closed")
        with pytest.raises(ValueError, match="overlap"):
            is_domatic_partition(cycle(4), p)

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
            assert b.zelinka_floor <= res.value <= b.ceiling
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

    def test_value_at_the_zelinka_floor_is_searched(self):
        # K7 at k = 2: the floor and the ceiling are both 3, and the witness
        # comes from the partition search, not from the balanced blocks
        res = d_xk(complete(7), 2)
        assert (res.bounds_used.zelinka_floor, res.bounds_used.ceiling, res.value) == (3, 3, 3)
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
        def out_of_time(signum, frame):
            raise TimeoutError

        g = complement(gnp(24, 0.3, 7))
        previous = signal.signal(signal.SIGALRM, out_of_time)
        signal.setitimer(signal.ITIMER_REAL, 30)
        try:
            res = d_xk(g, 1)
        except TimeoutError:
            pytest.fail("d_xk(complement(gnp(24, 0.3, 7)), 1) undecided after 30 s")
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        assert res.value == 10
        assert is_domatic_partition(g, res.witness)

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


class TestDomaticOracle:
    def test_cap_is_enforced(self, monkeypatch):
        for name in ("gamma_oracle", "satisfies_by_cases"):
            monkeypatch.setattr(domatic, name, lambda *args: pytest.fail("searched"))
        with pytest.raises(OracleCapError, match=f"n={ORACLE_PARTITION_CAP + 1} > cap={ORACLE_PARTITION_CAP}"):
            d_oracle(cycle(ORACLE_PARTITION_CAP + 1), 1)

    @given(graphs(), st.integers(1, 3), st.sampled_from(["closed", "open"]))
    @settings(deadline=None)
    def test_partition_count_certifies_its_value(self, g, k, mode):
        if not gated(g, k, mode):
            assert certified(g, k, mode, d_oracle(g, k, mode).value)

    def test_precomputed_gamma_must_match_k_and_mode(self):
        g = cycle(6)
        with pytest.raises(ValueError, match="gamma result is for k=2"):
            d_oracle(g, 1, gamma=gamma_oracle(g, 2))
        with pytest.raises(ValueError, match="mode='open'"):
            d_oracle(g, 1, gamma=gamma_oracle(g, 1, "open"))
        assert d_oracle(g, 1, gamma=gamma_oracle(g, 1)).value == 3

    def test_answers_at_the_cap(self):
        # d(C_n) at k = 1 is 3 when 3 divides n, else 2
        assert d_oracle(cycle(ORACLE_PARTITION_CAP), 1).value == (3 if ORACLE_PARTITION_CAP % 3 == 0 else 2)


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
