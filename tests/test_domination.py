"""Minimum k-tuple dominating sets: predicates, exact solver, oracle."""

from __future__ import annotations

from itertools import chain, combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ktdom import (
    DegreeGateError,
    OracleCapError,
    complete,
    complete_bipartite,
    cycle,
    disjoint_union,
    gamma_oracle,
    gamma_xk,
    is_ktuple_dominating,
    is_ktuple_dominating_by_cases,
    is_ktuple_total_dominating,
    kjoin_decomposition_exists,
    kjoin_minimum_size,
    path,
)
from ktdom import domination
from ktdom.domination import ORACLE_VERTEX_CAP
from strategies import all_graphs, graphs

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


@pytest.mark.parametrize("g, k, mode, expected", FROZEN_GAMMA)
def test_frozen_values_match_solver_and_oracle(g, k, mode, expected):
    assert gamma_xk(g, k, mode).value == expected
    assert gamma_oracle(g, k, mode).value == expected


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

    def test_deterministic_witness(self):
        g = cycle(7)
        first = gamma_xk(g, 2)
        second = gamma_xk(g, 2)
        assert first.witness == second.witness
        assert first.nodes_explored == second.nodes_explored


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

    def test_size_bounds_validated(self):
        with pytest.raises(ValueError, match="at least"):
            kjoin_decomposition_exists(complete(4), 3, 1)
        with pytest.raises(ValueError, match="exceeds"):
            kjoin_decomposition_exists(complete(4), 2, 5)

    def test_gate_checked_before_size(self):
        # K2 at k=3 admits no set of any size: minimum degree 1 < k-1
        with pytest.raises(DegreeGateError):
            kjoin_decomposition_exists(complete(2), 3, 2)

    def test_minimum_size_equals_gamma(self):
        for g, k, mode, expected in FROZEN_GAMMA:
            if mode == "closed":
                assert kjoin_minimum_size(g, k) == expected

    @given(graphs(max_n=6), st.integers(1, 3))
    @settings(max_examples=200)
    def test_minimum_size_equals_gamma_random(self, g, k):
        if g.min_degree < k - 1:
            return
        assert kjoin_minimum_size(g, k) == gamma_xk(g, k).value
