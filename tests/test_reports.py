"""Combined invariant reports used by the compute subcommand."""

from __future__ import annotations

import json

import pytest

from ktdom import OracleCapError, complete, compute_invariants, cycle, gnp, path, verify_all
from ktdom import domatic, reports
from ktdom.reports import cross_check


def test_both_modes_populated_when_gates_hold():
    report = compute_invariants(complete(6), 2)
    assert report.gamma.value == 2
    assert report.domatic.value == 3
    assert report.gamma_total.value == 3
    assert report.domatic_total.value == 2
    assert report.notes == ()


def test_mode_selection():
    g = cycle(5)
    closed_only = compute_invariants(g, 2, "closed")
    assert closed_only.gamma is not None and closed_only.gamma_total is None
    open_only = compute_invariants(g, 2, "open")
    assert open_only.gamma is None and open_only.gamma_total is not None


def test_gate_failures_become_notes_not_errors():
    report = compute_invariants(path(4), 2)  # delta = 1: closed ok, open impossible
    assert report.gamma is not None
    assert report.gamma_total is None and report.domatic_total is None
    assert any("open mode skipped" in note for note in report.notes)
    report = compute_invariants(path(4), 3)
    assert report.gamma is None
    assert any("closed mode skipped" in note for note in report.notes)


def test_bad_mode():
    with pytest.raises(ValueError, match="mode"):
        compute_invariants(complete(3), 1, "semi")


def test_oracle_cross_check_clean_on_small_graphs():
    report = compute_invariants(cycle(6), 2, with_oracle=True)
    assert report.oracle_checked
    assert report.oracle_mismatches == ()


def test_oracle_cross_check_refuses_large_graphs():
    # the oracles' own error, so that one except clause catches every refusal
    g = gnp(11, 0.5, 1)
    with pytest.raises(OracleCapError, match="oracle cross-check needs n <= 10, got n = 11"):
        compute_invariants(g, 1, with_oracle=True)
    with pytest.raises(OracleCapError, match="oracle cross-check needs n <= 10, got n = 11"):
        cross_check(g, compute_invariants(g, 1))


def test_cross_check_skips_a_gated_mode(monkeypatch):
    g = path(4)
    report = compute_invariants(g, 2)  # delta = 1 < k: open mode is gated
    modes = []

    def spy(original):
        def wrapper(g, k, mode, **kwargs):
            modes.append(mode)
            return original(g, k, mode, **kwargs)
        return wrapper

    for name in ("gamma_oracle", "d_oracle"):
        monkeypatch.setattr(reports, name, spy(getattr(reports, name)))
    assert cross_check(g, report) == ()
    assert modes == ["closed", "closed"]


def test_cross_check_solves_each_gamma_oracle_once(monkeypatch):
    # d_oracle takes the minimum cross_check just computed instead of solving it again
    modes = []
    original = reports.gamma_oracle

    def spy(g, k, mode="closed"):
        modes.append(mode)
        return original(g, k, mode)

    for module in (reports, domatic):
        monkeypatch.setattr(module, "gamma_oracle", spy)
    report = compute_invariants(gnp(9, 0.5, 1), 1, with_oracle=True)
    assert report.oracle_mismatches == ()
    assert modes == ["closed", "open"]


def test_to_dict_shape():
    payload = compute_invariants(complete(4), 2).to_dict()
    json.dumps(payload)  # no exotic objects
    assert payload["instance"]["n"] == 4
    assert payload["gamma"]["value"] == 2
    assert payload["domatic"]["witness"]["classes"] == [[0, 1], [2, 3]]
    assert payload["oracle"] == {"checked": False, "mismatches": []}


def test_verify_all_keeps_the_report_it_was_built_from():
    g = cycle(6)
    report = verify_all(g, 1)
    inv = report.invariants
    assert (report.gamma, report.d, report.gamma_total, report.d_total) == (
        inv.gamma.value, inv.domatic.value, inv.gamma_total.value, inv.domatic_total.value)
    assert "invariants" not in report.to_dict()
    assert cross_check(g, inv) == ()
