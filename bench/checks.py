"""Correctness checks on benchmark outputs, run outside the timed region.

``signature`` gives the values of one execution, compared across passes so
that a run also catches non-determinism; ``errors`` lists what is wrong with
one decided execution, and any error makes it count as failed.  Witnesses
are re-checked with the library's independent predicates.  ``verify_all``
returns values only, so for the verify op the invariants are solved once
more here to get witnesses.
"""

from __future__ import annotations

from workloads import COMPUTE, VERIFY

VALUE_KEYS = ("gamma", "d", "gamma_total", "d_total", "d_complement")


def _gamma_errors(kt, g, k, mode, res, label):
    test = kt.is_ktuple_dominating if mode == "closed" else kt.is_ktuple_total_dominating
    errors = []
    if len(res.witness) != res.value:
        errors.append(f"{label}: witness size {len(res.witness)} != value {res.value}")
    if not test(g, res.witness, k):
        errors.append(f"{label}: witness rejected by the {mode} predicate")
    return errors


def _domatic_errors(kt, g, k, mode, res, label):
    p = res.witness
    errors = []
    if (p.k, p.mode, len(p.classes)) != (k, mode, res.value):
        errors.append(f"{label}: witness has k={p.k} mode={p.mode} {len(p.classes)} classes, value {res.value}")
    if not kt.is_domatic_partition(g, p):
        errors.append(f"{label}: witness rejected by is_domatic_partition")
    return errors


def _invariant_errors(kt, g, k, report):
    """Witness checks of an InvariantReport; returns (values, errors)."""
    errors = []
    values = {}
    for key, gamma_attr, d_attr, mode, need in (
        ("", "gamma", "domatic", "closed", k - 1),
        ("_total", "gamma_total", "domatic_total", "open", k),
    ):
        gres, dres = getattr(report, gamma_attr), getattr(report, d_attr)
        if (gres is None) != (g.min_degree < need):
            errors.append(f"{mode} mode solved={gres is not None} disagrees with the degree gate")
        if gres is not None and dres is not None:
            errors += _gamma_errors(kt, g, k, mode, gres, "gamma" + key)
            errors += _domatic_errors(kt, g, k, mode, dres, "d" + key)
        values["gamma" + key] = gres.value if gres else None
        values["d" + key] = dres.value if dres else None
    return values, errors


def _verify_errors(kt, g, k, report):
    """Re-solve the invariants behind a BoundsReport and check their witnesses."""
    values = {key: getattr(report, key) for key in VALUE_KEYS}
    errors = [f"check {c.check_id} violated: {c.notes}" for c in report.violations]
    if values["gamma"] is None:
        if g.min_degree >= k - 1:
            errors.append("closed mode reported unsolved although the degree gate holds")
        return values, errors
    for mode, suffix in (("closed", ""), ("open", "_total")):
        if values["gamma" + suffix] is None:
            continue
        gres = kt.gamma_xk(g, k, mode)
        dres = kt.d_xk(g, k, mode, gamma=gres)
        if (gres.value, dres.value) != (values["gamma" + suffix], values["d" + suffix]):
            errors.append(f"{mode}: report ({values['gamma' + suffix]}, {values['d' + suffix]}) != "
                          f"re-solve ({gres.value}, {dres.value})")
        errors += _gamma_errors(kt, g, k, mode, gres, "gamma" + suffix)
        errors += _domatic_errors(kt, g, k, mode, dres, "d" + suffix)
    if values["d_complement"] is not None:
        gbar = kt.complement(g)
        dres = kt.d_xk(gbar, k)
        if dres.value != values["d_complement"]:
            errors.append(f"d_complement: report {values['d_complement']} != re-solve {dres.value}")
        errors += _domatic_errors(kt, gbar, k, "closed", dres, "d_complement")
    return values, errors


def signature(op: str, result) -> tuple:
    """Values and check statuses of one execution, compared across passes."""
    if op == VERIFY:
        return tuple(getattr(result, key) for key in VALUE_KEYS), tuple(c.status for c in result.checks)
    if op == COMPUTE:
        return tuple(r.value if r else None for r in (result.gamma, result.domatic, result.gamma_total,
                                                     result.domatic_total)), \
            result.gamma.nodes_explored if result.gamma else None
    report, inv = result
    return signature(VERIFY, report), signature(COMPUTE, inv)


def errors(kt, op: str, g, k: int, result, expected: dict | None) -> list[str]:
    """Everything wrong with one decided execution; empty when it is correct."""
    if op == VERIFY:
        values, errs = _verify_errors(kt, g, k, result)
    elif op == COMPUTE:
        values, errs = _invariant_errors(kt, g, k, result)
    else:
        report, inv = result
        values, errs = _invariant_errors(kt, g, k, inv)
        errs += [f"check {c.check_id} violated: {c.notes}" for c in report.violations]
        errs += [f"oracle mismatch: {m}" for m in inv.oracle_mismatches]
        for key, value in values.items():
            if getattr(report, key) != value:
                errs.append(f"{key}: verify_all {getattr(report, key)} != compute_invariants {value}")
    for key, want in (expected or {}).items():
        if want != "unknown" and values.get(key) != want:
            errs.append(f"{key} = {values.get(key)}, reference table says {want}")
    return errs
