"""Invariant reports: all four computed values plus certificates for one
(graph, k) pair, with optional brute-force cross-checking.

compute_invariants is where each instance is solved; verify_all in
bounds.py builds its check catalogue on the report it returns."""

from __future__ import annotations

from dataclasses import dataclass

from .domatic import ORACLE_PARTITION_CAP, DomaticResult, d_oracle, d_xk
from .domination import (ORACLE_VERTEX_CAP, GammaResult, OracleCapError, _check_k, _json_ready, _needed_degree,
                         gamma_oracle, gamma_xk)
from .graphs import Graph

# the instance block of every report, in field order; the fields of the same names hold it
_INSTANCE_KEYS = ("n", "edge_count", "delta", "Delta", "k")


@dataclass(slots=True)
class InvariantReport:
    """Computed invariants with witnesses; None where the degree gate fails."""

    n: int
    edge_count: int
    delta: int
    Delta: int
    k: int
    gamma: GammaResult | None
    domatic: DomaticResult | None
    gamma_total: GammaResult | None
    domatic_total: DomaticResult | None
    notes: tuple[str, ...] = ()
    oracle_checked: bool = False
    oracle_mismatches: tuple[str, ...] = ()

    def to_dict(self) -> dict:
        return {
            "instance": {key: getattr(self, key) for key in _INSTANCE_KEYS},
            "gamma": _json_ready(self.gamma),
            "domatic": _json_ready(self.domatic),
            "gamma_total": _json_ready(self.gamma_total),
            "domatic_total": _json_ready(self.domatic_total),
            "notes": list(self.notes),
            "oracle": {"checked": self.oracle_checked, "mismatches": list(self.oracle_mismatches)},
        }


def compute_invariants(
    g: Graph,
    k: int,
    mode: str = "both",
    *,
    with_oracle: bool = False,
) -> InvariantReport:
    """Solve the requested modes for (g, k); never raises on a degree gate.

    This is the one place where an instance is gated and solved.  ``mode``
    selects "closed", "open" or "both".  With ``with_oracle`` a graph above
    the oracle caps is refused before solving, and the report is passed
    through cross_check.
    """
    if mode not in ("closed", "open", "both"):
        raise ValueError(f"mode must be 'closed', 'open' or 'both', got {mode!r}")
    if with_oracle:
        _check_oracle_cap(g.n)
    _check_k(k)
    notes: list[str] = []
    solved: list[GammaResult | DomaticResult | None] = []  # gamma and d per mode, closed first
    for m, need_text in (("closed", "k-1"), ("open", "k")):
        gamma = domatic = None
        need = _needed_degree(k, m)
        if mode in (m, "both"):
            if g.min_degree >= need:
                gamma = gamma_xk(g, k, m)
                domatic = d_xk(g, k, m, gamma=gamma)
            else:
                notes.append(f"{m} mode skipped: minimum degree {g.min_degree} < {need_text} = {need}")
        solved += (gamma, domatic)

    report = InvariantReport(g.n, g.edge_count, g.min_degree, g.max_degree, k, *solved, tuple(notes))
    if with_oracle:
        report.oracle_checked = True
        report.oracle_mismatches = cross_check(g, report)
    return report


def cross_check(g: Graph, report: InvariantReport) -> tuple[str, ...]:
    """Recompute every solved value of ``report`` with the brute-force
    references; returns one line per disagreement.  Each reference runs on
    its own, independent of the solvers and of the other.

    The references have vertex caps, so a graph above them is an OracleCapError.
    """
    _check_oracle_cap(g.n)
    mismatches: list[str] = []
    for label, fast, mode in (
        ("gamma", report.gamma, "closed"),
        ("gamma_total", report.gamma_total, "open"),
        ("d", report.domatic, "closed"),
        ("d_total", report.domatic_total, "open"),
    ):
        if fast is None:
            continue
        reference = (gamma_oracle if isinstance(fast, GammaResult) else d_oracle)(g, report.k, mode)
        if reference.value != fast.value:
            mismatches.append(f"{label}: solver = {fast.value}, oracle = {reference.value}")
    return tuple(mismatches)


def _check_oracle_cap(n: int) -> None:
    """Refuse a graph on n vertices above the references' vertex caps, before any search."""
    cap = min(ORACLE_VERTEX_CAP, ORACLE_PARTITION_CAP)
    if n > cap:
        raise OracleCapError(f"oracle cross-check needs n <= {cap}, got n = {n}")
