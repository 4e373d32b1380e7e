"""Verification of the known bounds tying the k-tuple invariants together.

verify_all takes the invariants of one (graph, k) pair from
compute_invariants, adds the complement's domatic number (solved only when
domatic.degree_ceiling at the complement's minimum degree exceeds 1), and
evaluates a fixed catalogue of checks (C1..C11).  Each check reports one of
four statuses: "holds" (strict), "sharp" (holds with equality), "violated"
(the solver output contradicts a proven bound, so a solver bug), or
"not-applicable" (a hypothesis such as a degree gate fails).  Real-valued
bounds are compared in exact rational arithmetic, never floats.

Two catalogue entries enforce slightly tightened forms because the naive
statements fail on boundary instances:

* C7 equality analysis: when d + d(complement) = (n+1)/k exactly, the graph
  must be regular and the larger side's optimal partition satisfies the
  class-size identity d*r = n with k-1 <= r <= 2k-1 (r the smallest class).
  The looser estimate n/(r+1) + 1/k <= d is false for C5 at k=3 and for K1
  at k=1, so it is recorded in the notes but never enforced.
* C9 sandwich: d_t <= d always, and pairing the classes of an optimal
  closed-mode partition gives d_t >= floor(d/2); the unconditional upper
  bound d <= 2*d_t fails for odd d (K3 at k=1 has d=3, d_t=1), so the
  enforced form is d <= 2*d_t + 1 with d <= 2*d_t whenever d is even.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .domatic import d_xk, degree_ceiling, zelinka_floor
from .domination import (_json_ready, _needed_degree, _Record, is_ktuple_dominating_by_cases,
                         kjoin_decomposition_exists, vertex_mask)
from .graphs import Graph, complement
from .reports import _INSTANCE_KEYS, InvariantReport, compute_invariants

HOLDS = "holds"
SHARP = "sharp"
VIOLATED = "violated"
NOT_APPLICABLE = "not-applicable"

_STATEMENTS = {
    "C1": "gamma * d <= n",
    "C2": "d <= floor((delta + 1) / k)",
    "C3": "d <= n / (k - 1) for k >= 2",
    "C4": "d <= n / (2k - 2) for bipartite graphs, k >= 2",
    "C5": "gamma + d <= n + 1 for k >= 3",
    "C5b": "gamma + d <= n/2 + 2 for k >= 3 when d >= 2",
    "C6": "d = 1 when k - 1 <= delta <= 2k - 2",
    "C7": "d + d(complement) <= (n + 1) / k",
    "C8": "d >= floor(n / (k (n - delta)))",
    "C9": "d_t <= d <= 2 d_t + 1, and d <= 2 d_t for even d",
    "C10": "gamma >= 2k - 2 for bipartite graphs, k >= 2",
    "C11": "min { t : an exact-size-t dominating block exists } = gamma",
}

CHECK_IDS = tuple(_STATEMENTS)

# the values block of every bounds report, in field order; the fields of the same names hold it
_VALUE_KEYS = ("gamma", "d", "gamma_total", "d_total", "d_complement")


@dataclass(frozen=True, slots=True)
class CheckResult(_Record):
    check_id: str
    statement: str
    lhs: object | None
    rhs: object | None
    status: str
    notes: str = ""


@dataclass(slots=True)
class BoundsReport:
    """Instance metadata, computed invariants and the check catalogue.

    ``invariants`` is the InvariantReport the values were taken from, with
    its witnesses; to_dict() does not write it.  The values are None where
    a degree gate fails.
    """

    n: int
    edge_count: int
    delta: int
    Delta: int
    k: int
    regular: bool
    bipartite: bool
    checks: tuple[CheckResult, ...]
    invariants: InvariantReport
    gamma: int | None = None
    d: int | None = None
    gamma_total: int | None = None
    d_total: int | None = None
    d_complement: int | None = None
    r_used: int | None = None

    @property
    def violations(self) -> tuple[CheckResult, ...]:
        return tuple([c for c in self.checks if c.status == VIOLATED])

    def status_counts(self) -> dict[str, int]:
        counts = {HOLDS: 0, SHARP: 0, VIOLATED: 0, NOT_APPLICABLE: 0}
        for c in self.checks:
            counts[c.status] += 1
        return counts

    def check(self, check_id: str) -> CheckResult:
        for c in self.checks:
            if c.check_id == check_id:
                return c
        raise KeyError(check_id)

    def to_dict(self) -> dict:
        return {
            "instance": {key: getattr(self, key) for key in (*_INSTANCE_KEYS, "regular", "bipartite")},
            "values": {key: getattr(self, key) for key in (*_VALUE_KEYS, "r_used")},
            "checks": _json_ready(self.checks),
            "status_counts": self.status_counts(),
        }


_SIGNATURE_NOTES = ("equality instance matches the K_{k-1,k-1} signature", "equality occurs only on K_{k-1,k-1}")


def _result(check_id: str, lhs: object, rhs: object, status: str, notes: str = "") -> CheckResult:
    return CheckResult(check_id, _STATEMENTS[check_id], lhs, rhs, status, notes)


def _na(check_id: str, reason: str) -> CheckResult:
    return _result(check_id, None, None, NOT_APPLICABLE, reason)


def _compare(check_id: str, lhs, rhs, sharp_ok: bool = True, sharp_notes: str = "",
             broken_notes: str = "", *, lower: bool = False) -> CheckResult:
    """The status rule shared by the one-sided checks.

    lhs beyond rhs (above it, or below it when ``lower``) is violated;
    equality is sharp with ``sharp_notes`` when ``sharp_ok`` holds and
    violated with ``broken_notes`` when it does not (the equality case of
    the bound forces a structure the instance lacks); anything else holds.
    """
    if (lhs < rhs) if lower else (lhs > rhs):
        return _result(check_id, lhs, rhs, VIOLATED)
    if lhs != rhs:
        return _result(check_id, lhs, rhs, HOLDS)
    if sharp_ok:
        return _result(check_id, lhs, rhs, SHARP, sharp_notes)
    return _result(check_id, lhs, rhs, VIOLATED, broken_notes)


def verify_all(g: Graph, k: int) -> BoundsReport:
    """Evaluate every catalogue check for one (graph, k) pair.

    Degree-gate failures mark the affected checks not-applicable instead of
    aborting, so batch callers always get a full report.

    γ and d come from compute_invariants.  Its own searches are two: the
    complement's d for C7, and C11's exact-size probe, which re-proves γ's
    minimality at every n.  The complement is built and solved only when
    degree_ceiling at its minimum degree n - 1 - Delta is 2 or more; at 1,
    d(complement) = 1 is forced.
    """
    inv = compute_invariants(g, k)
    n = g.n
    delta = g.min_degree
    Delta = g.max_degree
    regular = g.is_regular()
    bipartite = g.is_bipartite()

    need = _needed_degree(k, "closed")
    if inv.gamma is None:
        reason = f"no k-tuple dominating set: minimum degree {delta} < {need}"
        return BoundsReport(n, g.edge_count, delta, Delta, k, regular, bipartite,
                            tuple([_na(cid, reason) for cid in CHECK_IDS]), inv)

    d_res = inv.domatic
    gamma = inv.gamma.value
    d = d_res.value
    d_t_res = inv.domatic_total

    # C7 reads only d(complement), which the complement's degree ceiling
    # frames: at 0 the complement has no k-tuple dominating set, and at 1
    # (C6 on the complement) d(complement) = 1 and nothing is built or searched.
    delta_bar = n - 1 - Delta
    ceiling_bar = degree_ceiling(delta_bar, k, "closed")
    dbar_res = None
    if ceiling_bar == 0:
        dbar = None
    elif ceiling_bar == 1:
        dbar = 1
    else:
        dbar_res = d_xk(complement(g), k)
        dbar = dbar_res.value

    r_used: int | None = None
    checks: list[CheckResult] = []

    # C1: the class sizes of any valid partition sum to n and each is >= gamma.
    checks.append(_compare(
        "C1", gamma * d, n, all(len(cls) == gamma for cls in d_res.witness.classes),
        "every witness class is a minimum set", "equality requires every witness class to have minimum size",
    ))

    # C2: a minimum-degree vertex has delta+1 closed neighbours split among
    # the classes, each taking at least k; at d = (delta+1)/k each takes k.
    exact_split = d * k == delta + 1
    split_ok = not exact_split or all(
        (g.closed[v] & mask).bit_count() == k
        for mask in [vertex_mask(g, cls) for cls in d_res.witness.classes]
        for v in range(n) if g.deg[v] == delta
    )
    checks.append(_compare(
        "C2", d, d_res.bounds_used.degree_ceiling, split_ok,
        "class count attains the degree ceiling"
        + ("; every class meets each minimum-degree closed neighbourhood exactly k times" if exact_split else ""),
        "exact equality d = (delta+1)/k forces |N[v] & class| = k for minimum-degree v",
    ))

    # why C3, C4 and C10 do not apply, or None; C4 and C10 name bipartiteness first
    k_gate = None if k >= 2 else "needs k >= 2"
    bipartite_gate = k_gate if bipartite else "graph is not bipartite"

    # C3
    if k_gate:
        checks.append(_na("C3", k_gate))
    else:
        checks.append(_compare(
            "C3", d, Fraction(n, k - 1), gamma == k - 1, "gamma = k - 1",
            "equality requires gamma = k - 1, impossible since every set has >= k members",
        ))

    # C4: a bipartite (k-1)-regular graph on 2k-2 vertices with (k-1)^2
    # edges is K_{k-1,k-1}, the signature C4 and C10 attain equality on.
    m = k - 1
    signature = bipartite and regular and n == 2 * m and delta == m and g.edge_count == m * m
    if bipartite_gate:
        checks.append(_na("C4", bipartite_gate))
    else:
        checks.append(_compare("C4", d, Fraction(n, 2 * k - 2), signature, *_SIGNATURE_NOTES))

    # C5 / C5b
    if k < 3:
        checks.append(_na("C5", "needs k >= 3"))
        checks.append(_na("C5b", "needs k >= 3"))
    else:
        checks.append(_compare("C5", gamma + d, n + 1))
        if d < 2:
            checks.append(_na("C5b", "needs d >= 2"))
        else:
            checks.append(_compare("C5b", gamma + d, Fraction(n, 2) + 2))

    # C6: two disjoint classes would need 2k closed neighbours at a
    # minimum-degree vertex, so C6 applies exactly at degree ceiling 1.
    if d_res.bounds_used.degree_ceiling > 1:
        checks.append(_na("C6", f"needs delta <= 2k-2 = {2 * k - 2}, have delta = {delta}"))
    else:
        checks.append(_result("C6", d, 1, HOLDS if d == 1 else VIOLATED))

    # C7
    if dbar is None:
        checks.append(_na("C7", f"complement minimum degree {delta_bar} < {need}"))
    else:
        total = d + dbar
        bound = Fraction(n + 1, k)
        if total > bound:
            checks.append(_result("C7", total, bound, VIOLATED))
        elif total < bound:
            notes = f"d(complement) = {dbar}"
            if total == (n + 1) // k:
                notes += "; integer part of the bound attained"
            checks.append(_result("C7", total, bound, HOLDS, notes))
        else:
            problems: list[str] = []
            notes_parts = [f"d(complement) = {dbar}", "sum attains (n+1)/k exactly"]
            if n == 1:
                notes_parts.append("single-vertex instance, class-size analysis skipped")
            else:
                if not regular:
                    problems.append("equality requires a regular graph")
                else:
                    if d >= dbar:
                        big, side = d_res, "graph"
                    else:  # dbar > d >= 1, so the complement was solved
                        big, side = dbar_res, "complement"
                    r = min(len(cls) for cls in big.witness.classes)
                    r_used = r
                    notes_parts.append(f"r = {r}, smallest class on the {side} side")
                    if not (k - 1 <= r <= 2 * k - 1):
                        problems.append(f"r = {r} outside [k-1, 2k-1]")
                    if big.value * r != n:
                        problems.append(f"class-size identity d*r = n fails: {big.value}*{r} != {n}")
                    else:
                        notes_parts.append("class-size identity d*r = n holds")
                    if k >= 2 and big.value * (k - 1) > n:
                        problems.append("d exceeds n/(k-1)")
                    estimate = Fraction(n, r + 1) + Fraction(1, k)
                    if estimate > big.value:
                        notes_parts.append(
                            f"looser estimate n/(r+1) + 1/k = {estimate} exceeds d = {big.value}; "
                            "recorded only, the estimate fails on boundary instances"
                        )
            status = VIOLATED if problems else SHARP
            checks.append(_result("C7", total, bound, status, "; ".join(problems or notes_parts)))

    # C8
    checks.append(_compare("C8", d, zelinka_floor(g, k), lower=True))

    # C9
    if d_t_res is None:
        checks.append(_na("C9", f"needs delta >= k, have delta = {delta}"))
    else:
        d_t = d_t_res.value
        upper = 2 * d_t + (1 if d % 2 else 0)
        if d_t > d or d > upper:
            checks.append(_result("C9", d, upper, VIOLATED, f"d_t = {d_t}"))
        else:
            notes_parts = [f"d_t = {d_t}"]
            status = HOLDS
            if d_t == d:
                status = SHARP
                notes_parts.append("lower end tight: d = d_t")
            if d == 2 * d_t:
                status = SHARP
                notes_parts.append("upper end tight: d = 2 d_t")
            if d == 2 * d_t + 1:
                notes_parts.append("odd-count boundary d = 2 d_t + 1 attained")
            checks.append(_result("C9", d, upper, status, "; ".join(notes_parts)))

    # C10: K_{k-1,k-1} attains the floor, and it is the only graph that does.
    if bipartite_gate:
        checks.append(_na("C10", bipartite_gate))
    elif signature and gamma > 2 * k - 2:
        checks.append(_result("C10", gamma, 2 * k - 2, VIOLATED, "K_{k-1,k-1} must attain equality"))
    else:
        checks.append(_compare("C10", gamma, 2 * k - 2, signature, *_SIGNATURE_NOTES, lower=True))

    # C11: supersets of blocks are blocks, so walk down from one at hand: gamma's
    # witness if the literal test accepts it, else V (the degree gate makes V one).
    # No block is smaller than k; when C11 holds, one probe at gamma - 1 decides it.
    witness = inv.gamma.witness
    smallest = len(witness) if is_ktuple_dominating_by_cases(g, witness, k) else n
    while smallest > k and kjoin_decomposition_exists(g, k, smallest - 1) is not None:
        smallest -= 1
    checks.append(_result("C11", smallest, gamma, HOLDS if smallest == gamma else VIOLATED))

    return BoundsReport(
        n, g.edge_count, delta, Delta, k, regular, bipartite, tuple(checks), inv,
        gamma, d, inv.gamma_total.value if inv.gamma_total else None, d_t_res.value if d_t_res else None, dbar, r_used,
    )

