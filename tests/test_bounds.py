"""The check catalogue: statuses, sharpness recognition, report shape."""

from __future__ import annotations

import dataclasses
import itertools
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ktdom import (
    CHECK_IDS,
    HOLDS,
    NOT_APPLICABLE,
    SHARP,
    VIOLATED,
    complement,
    complete,
    complete_bipartite,
    cycle,
    d_xk,
    disjoint_union,
    gnp,
    is_ktuple_dominating,
    path,
    random_regular,
    verify_all,
)
from ktdom import bounds
from ktdom.domatic import degree_ceiling
from strategies import graphs
from test_domatic import within


def statuses(report):
    return {c.check_id: c.status for c in report.checks}


class TestReportShape:
    def test_every_check_id_present_exactly_once(self):
        report = verify_all(complete(5), 2)
        assert tuple(c.check_id for c in report.checks) == CHECK_IDS

    def test_degree_gated_report_keeps_the_check_order(self):
        report = verify_all(path(3), 3)
        assert report.gamma is None
        assert tuple(c.check_id for c in report.checks) == CHECK_IDS

    def test_status_counts_cover_all_checks(self):
        report = verify_all(cycle(6), 1)
        assert sum(report.status_counts().values()) == len(CHECK_IDS)

    def test_check_lookup(self):
        report = verify_all(complete(4), 1)
        assert report.check("C8").check_id == "C8"
        with pytest.raises(KeyError):
            report.check("C99")

    def test_to_dict_is_json_serializable(self):
        # rational bounds are written as exact strings, never as Fraction objects or floats
        payload = verify_all(complete_bipartite(3, 3), 3).to_dict()
        rhs = {c["check_id"]: c["rhs"] for c in payload["checks"]}
        assert (rhs["C3"], rhs["C4"], rhs["C7"]) == ("3", "3/2", "7/3")
        assert json.loads(json.dumps(payload)) == payload

    def test_rejects_bad_k(self):
        with pytest.raises(ValueError, match="positive integer"):
            verify_all(complete(3), 0)

    def test_gate_failure_marks_everything_not_applicable(self):
        report = verify_all(path(2), 3)  # delta = 1 < k - 1
        assert all(c.status == NOT_APPLICABLE for c in report.checks)
        assert report.gamma is None and report.d is None
        assert report.d_complement is None and report.r_used is None
        assert report.to_dict()["values"] == dict.fromkeys(
            ("gamma", "d", "gamma_total", "d_total", "d_complement", "r_used"))


class TestIndividualChecks:
    def test_product_bound_sharp_on_complete_graph(self):
        # K4 at k=1: gamma = 1, d = 4, product = n with singleton classes
        report = verify_all(complete(4), 1)
        c1 = report.check("C1")
        assert c1.status == SHARP and "minimum" in c1.notes

    def test_degree_ceiling_sharp_with_exact_split(self):
        report = verify_all(complete(6), 2)
        c2 = report.check("C2")
        assert c2.status == SHARP
        assert "exactly k times" in c2.notes

    def test_degree_ceiling_strict(self):
        # C5 at k=2: ceiling floor(3/2) = 1 and d = 1, sharp but not an exact split
        report = verify_all(cycle(5), 2)
        assert report.check("C2").status == SHARP

    def test_k2_bound_needs_k_at_least_two(self):
        assert verify_all(cycle(5), 1).check("C3").status == NOT_APPLICABLE
        assert verify_all(cycle(5), 2).check("C3").status == HOLDS

    def test_bipartite_ceiling(self):
        report = verify_all(complete_bipartite(2, 2), 3)
        c4 = report.check("C4")
        assert c4.status == SHARP
        assert "signature" in c4.notes
        assert verify_all(complete(4), 3).check("C4").status == NOT_APPLICABLE

    def test_bipartite_ceiling_strict_case(self):
        report = verify_all(complete_bipartite(4, 4), 2)
        assert report.check("C4").status == HOLDS  # d = 2 < 8/2

    def test_sum_bound_needs_k_at_least_three(self):
        report = verify_all(complete(6), 2)
        assert report.check("C5").status == NOT_APPLICABLE
        assert report.check("C5b").status == NOT_APPLICABLE

    def test_sum_bound_sharp_on_single_clique(self):
        # K3 at k=3: gamma = 3, d = 1, sum = n + 1
        report = verify_all(complete(3), 3)
        assert report.check("C5").status == SHARP
        assert report.check("C5b").status == NOT_APPLICABLE  # d = 1

    def test_refined_sum_bound_sharp_on_k6(self):
        # K6 at k=3: gamma = 3, d = 2, sum = 5 = 6/2 + 2
        report = verify_all(complete(6), 3)
        assert report.check("C5b").status == SHARP

    def test_low_degree_forces_single_class(self):
        report = verify_all(complete_bipartite(2, 2), 2)  # delta = 2 = 2k - 2
        assert report.check("C6").status == HOLDS
        assert verify_all(complete(4), 2).check("C6").status == NOT_APPLICABLE

    def test_complement_sum_sharp_on_complete_graph(self):
        report = verify_all(complete(4), 1)
        c7 = report.check("C7")
        assert c7.status == SHARP
        assert "d*r = n holds" in c7.notes
        assert report.r_used == 1

    def test_complement_sum_strict_with_integer_part_note(self):
        report = verify_all(complete_bipartite(2, 2), 2)
        c7 = report.check("C7")
        assert c7.status == HOLDS
        assert "integer part" in c7.notes

    def test_complement_sum_skipped_without_complement_gate(self):
        # complement of K5 is edgeless: delta = 0 < k - 1 for k = 2
        report = verify_all(complete(5), 2)
        assert report.check("C7").status == NOT_APPLICABLE

    def test_complement_at_ceiling_one_is_not_solved(self, monkeypatch):
        # the complement's degree ceiling is 1, so d(complement) = 1 is forced
        for name in ("complement", "d_xk"):
            monkeypatch.setattr(bounds, name, lambda *args, name=name: pytest.fail(f"{name} called"))
        report = verify_all(complete(5), 1)
        assert report.check("C7").status != NOT_APPLICABLE and report.d_complement == 1
        # dense: solving this complement takes about 5 s
        report = within(2, lambda: verify_all(gnp(36, 0.9, 2), 2), "verify_all(gnp(36, 0.9, 2), 2)")
        assert report.check("C7").status != NOT_APPLICABLE and report.d_complement == 1
        assert report.d == 12

    def test_complement_value_matches_its_solve(self, monkeypatch):
        solves = []
        monkeypatch.setattr(bounds, "d_xk", lambda *args: solves.append(args) or d_xk(*args))
        kinds = set()
        for n, p, seed in itertools.product(range(4, 13), (0.3, 0.5, 0.7, 0.9, 0.95), (1, 2, 3)):
            g = gnp(n, p, seed)
            gbar = complement(g)
            for k in (1, 2, 3):
                solves.clear()
                report = verify_all(g, k)
                if report.gamma is None:
                    continue
                case = (n, p, seed, k)
                # C6 applies exactly where the search's degree ceiling is 1
                c6_applies = report.check("C6").status != NOT_APPLICABLE
                assert c6_applies == (report.invariants.domatic.bounds_used.degree_ceiling == 1), case
                # C7 is gated, forced to 1 or solved as the complement's degree ceiling is 0, 1 or 2+
                if report.check("C7").status == NOT_APPLICABLE:
                    kind = "gated"
                    assert report.d_complement is None, case
                else:
                    kind = "solved" if solves else "forced"
                    assert report.d_complement == d_xk(gbar, k).value, case
                ceiling_bar = degree_ceiling(gbar.min_degree, k, "closed")
                assert kind == ("gated", "forced", "solved")[min(ceiling_bar, 2)], case
                kinds.add(kind)
        assert kinds == {"gated", "forced", "solved"}

    def test_single_vertex_complement_sum(self):
        # K1 is self-complementary with d = 1 on both sides: sum = 2 = (n+1)/k
        report = verify_all(complete(1), 1)
        c7 = report.check("C7")
        assert c7.status == SHARP
        assert "single-vertex" in c7.notes

    def test_partition_floor(self):
        report = verify_all(complete(6), 2)
        assert report.check("C8").status == SHARP  # floor 6/2 = 3 = d
        report = verify_all(cycle(5), 1)
        assert report.check("C8").status == HOLDS  # floor 5/3 = 1 < 2 = d

    def test_total_sandwich_even_case(self):
        report = verify_all(cycle(4), 1)
        c9 = report.check("C9")
        assert c9.status == SHARP
        assert "lower end tight" in c9.notes  # d = d_t = 2

    def test_total_sandwich_odd_boundary(self):
        # K3 at k=1: d = 3 but d_t = 1, attaining d = 2 d_t + 1
        report = verify_all(complete(3), 1)
        c9 = report.check("C9")
        assert c9.status == HOLDS
        assert "odd-count boundary" in c9.notes

    def test_total_sandwich_needs_open_gate(self):
        assert verify_all(disjoint_union([complete(2), complete(2)]), 2).check("C9").status == NOT_APPLICABLE

    def test_bipartite_gamma_floor(self):
        report = verify_all(complete_bipartite(2, 2), 3)
        c10 = report.check("C10")
        assert c10.status == SHARP and "signature" in c10.notes
        assert verify_all(complete_bipartite(4, 4), 3).check("C10").status == HOLDS
        assert verify_all(complete_bipartite(4, 4), 1).check("C10").status == NOT_APPLICABLE

    def test_exact_size_scan_agrees(self):
        assert verify_all(cycle(5), 2).check("C11").status == HOLDS

    def test_exact_size_scan_probes_one_below_gamma(self, monkeypatch):
        probed = []
        real = bounds.kjoin_decomposition_exists

        def spy(g, k, t):
            probed.append(t)
            return real(g, k, t)

        monkeypatch.setattr(bounds, "kjoin_decomposition_exists", spy)
        assert verify_all(cycle(5), 2).check("C11").status == HOLDS
        assert probed == [3]  # gamma's witness is a block of 4; 3 has none
        probed.clear()
        assert verify_all(complete(4), 2).check("C11").status == HOLDS
        assert probed == []  # gamma = k: no block is smaller
        # larger graphs: still one probe, at gamma - 1
        for g, below in ((cycle(17), 5), (random_regular(24, 3, 2), 6)):
            probed.clear()
            assert verify_all(g, 1).check("C11").status == HOLDS
            assert probed == [below]

    def test_exact_size_scan_uncapped(self):
        # n = 17 was once skipped as not-applicable; C11 now runs at every n
        c11 = verify_all(gnp(17, 0.5, 1), 1).check("C11")
        assert (c11.status, c11.lhs, c11.rhs) == (HOLDS, 2, 2)


class TestNoViolations:
    @given(graphs(), st.integers(1, 3))
    @settings(max_examples=300, deadline=None)
    def test_random_small_graphs_violate_nothing(self, g, k):
        assert verify_all(g, k).violations == ()

    def test_family_sample_violates_nothing(self):
        sample = [
            complete(8),
            complete_bipartite(3, 5),
            cycle(9),
            path(7),
            disjoint_union([complete(4), cycle(5)]),
            gnp(9, 0.6, 13),
        ]
        for g in sample:
            for k in (1, 2, 3):
                assert verify_all(g, k).violations == ()


class TestPerturbedValues:
    """A solver value moved by one must turn the check it breaks to violated.

    compute_invariants is replaced by the true report with gamma or d
    shifted, so every violated branch of the catalogue is reached; the
    notes fragment pins which branch fired (empty: the plain comparison).
    The field "gamma-witness" also replaces gamma's witness by the first
    vertices, as many as the shifted value, which must not form a block.
    """

    CASES = [
        ("C1", complete(4), 1, "d", 1, ""),
        ("C1", complete_bipartite(1, 2), 1, "d", 1, "every witness class"),
        ("C2", complete(4), 1, "d", 1, ""),
        ("C2", complete_bipartite(2, 2), 1, "d", 1, "forces"),
        ("C3", complete(3), 3, "d", 1, ""),
        ("C3", complete(4), 3, "d", 1, "gamma = k - 1"),
        ("C4", complete_bipartite(2, 2), 3, "d", 1, ""),
        ("C4", complete_bipartite(2, 2), 2, "d", 1, "only on K_{k-1,k-1}"),
        ("C5", complete(3), 3, "d", 1, ""),
        ("C5", complete(3), 3, "gamma", 1, ""),
        ("C5b", complete(4), 3, "d", 1, ""),
        ("C6", complete_bipartite(2, 2), 2, "d", 1, ""),
        ("C7", complete(4), 1, "d", 1, ""),
        ("C7", path(3), 1, "d", 1, "regular graph"),
        ("C7", cycle(4), 1, "d", 1, "outside [k-1, 2k-1]"),
        ("C8", complete(6), 2, "d", -1, ""),
        ("C9", complete(3), 1, "d", 1, "d_t = 1"),
        ("C9", complete_bipartite(2, 2), 1, "d", -1, "d_t = 2"),
        ("C10", complete_bipartite(2, 2), 3, "gamma", -1, ""),
        ("C10", complete_bipartite(2, 2), 3, "gamma", 1, "must attain equality"),
        ("C10", complete_bipartite(2, 2), 2, "gamma", -1, "only on K_{k-1,k-1}"),
        ("C11", cycle(5), 2, "gamma", 1, ""),
        ("C11", cycle(5), 2, "gamma", -1, ""),
        ("C11", cycle(5), 2, "gamma-witness", -1, ""),  # no block of the shifted size: fall back to V
    ]

    @pytest.mark.parametrize("check_id, g, k, field, shift, notes", CASES,
                             ids=[f"{c[0]}-{c[3]}{c[4]:+d}-{i}" for i, c in enumerate(CASES)])
    def test_shifted_value_is_violated(self, monkeypatch, check_id, g, k, field, shift, notes):
        real = bounds.compute_invariants

        def shifted(graph, kk, *args, **kwargs):
            report = real(graph, kk, *args, **kwargs)
            name = "domatic" if field == "d" else "gamma"
            result = getattr(report, name)
            changes = {"value": result.value + shift}
            if field == "gamma-witness":
                changes["witness"] = tuple(range(changes["value"]))
                assert not is_ktuple_dominating(graph, changes["witness"], kk)
            return dataclasses.replace(report, **{name: dataclasses.replace(result, **changes)})

        monkeypatch.setattr(bounds, "compute_invariants", shifted)
        check = verify_all(g, k).check(check_id)
        assert check.status == VIOLATED, check
        if notes:
            assert notes in check.notes
        else:
            assert check.notes == ""
        if check_id == "C11":  # the walk down from a block at hand still ends at the true gamma
            assert check.lhs == real(g, k).gamma.value
