#!/usr/bin/env python3
"""Regenerate reference.json, the expected values of every ladder instance.

    python3 bench/make_reference.py

Cycles and paths take closed forms, which are first confirmed against the
brute-force oracles for every n <= 10:
gamma_x1(C_n) = ceil(n/3); gamma_x1,t(C_n) = floor(n/2) + ceil(n/4) - floor(n/4);
d_x1(C_n) = 3 iff 3 | n, else 2; d_x1,t(C_n) = 2 iff 4 | n, else 1;
d_x1(complement of C_n) = floor(n/2); gamma_x2(C_n) = ceil(2n/3), and at k = 2
a cycle has d = d_t = 1 and gamma_t = n.  Paths share gamma and gamma_t with
cycles and have d = 2, d_t = 1.  Every other instance takes the solver's
values; gamma is confirmed with gamma_oracle where n <= 20 and d with
d_oracle where n <= 10.  A value outside its degree gate is null, one the
solver cannot reach within REFERENCE_BUDGET_S per call is "unknown": the
benchmark then checks only its witness.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import ktdom as kt  # noqa: E402
from run import EXHAUSTED, budgeted, install_alarm  # noqa: E402
from workloads import COMPUTE, VERIFY, build_workload  # noqa: E402

LADDERS = ("gamma-sparse", "domatic-dense")
UNKNOWN = "unknown"
REFERENCE_BUDGET_S = 30.0  # per solver call


def cycle_values(n: int, k: int) -> dict:
    if k == 1:
        return {"gamma": -(-n // 3), "d": 3 if n % 3 == 0 else 2,
                "gamma_total": n // 2 + -(-n // 4) - n // 4, "d_total": 2 if n % 4 == 0 else 1,
                "d_complement": n // 2}
    if k == 2:
        return {"gamma": -(-2 * n // 3), "d": 1, "gamma_total": n, "d_total": 1}
    raise ValueError(f"no closed form for cycles at k={k}")


def path_values(n: int, k: int) -> dict:
    if k != 1:
        raise ValueError(f"no closed form for paths at k={k}")
    return {"gamma": -(-n // 3), "d": 2, "gamma_total": n // 2 + -(-n // 4) - n // 4, "d_total": 1}


def solver_values(g, k: int, with_complement: bool) -> dict:
    out = {}
    for mode, suffix, need in (("closed", "", k - 1), ("open", "_total", k)):
        if g.min_degree < need:
            out["gamma" + suffix] = out["d" + suffix] = None
            continue
        gres = budgeted(lambda: kt.gamma_xk(g, k, mode), REFERENCE_BUDGET_S)
        gres = None if gres is EXHAUSTED else gres
        dres = gres and budgeted(lambda: kt.d_xk(g, k, mode, gamma=gres), REFERENCE_BUDGET_S)
        dres = None if dres is EXHAUSTED else dres
        out["gamma" + suffix] = gres.value if gres else UNKNOWN
        out["d" + suffix] = dres.value if dres else UNKNOWN
        if gres and g.n <= kt.domination.ORACLE_VERTEX_CAP:
            assert kt.gamma_oracle(g, k, mode).value == gres.value, (g, k, mode)
        if dres and g.n <= kt.domatic.ORACLE_PARTITION_CAP:
            assert kt.d_oracle(g, k, mode).value == dres.value, (g, k, mode)
    if with_complement:
        gbar = kt.complement(g)
        if gbar.min_degree < k - 1:
            out["d_complement"] = None
        else:
            dres = budgeted(lambda: kt.d_xk(gbar, k), REFERENCE_BUDGET_S)
            out["d_complement"] = UNKNOWN if dres is EXHAUSTED else dres.value
    return out


def confirm_closed_forms() -> None:
    for n in range(5, 11):
        for k in (1, 2):
            g = kt.cycle(n)
            got = {"gamma": kt.gamma_oracle(g, k).value, "d": kt.d_oracle(g, k).value,
                   "gamma_total": kt.gamma_oracle(g, k, "open").value, "d_total": kt.d_oracle(g, k, "open").value}
            if k == 1:
                got["d_complement"] = kt.d_oracle(kt.complement(g), k).value
            assert got == cycle_values(n, k), (n, k, got)
    for n in range(2, 11):
        g = kt.path(n)
        got = {"gamma": kt.gamma_oracle(g, 1).value, "d": kt.d_oracle(g, 1).value,
               "gamma_total": kt.gamma_oracle(g, 1, "open").value, "d_total": kt.d_oracle(g, 1, "open").value}
        assert got == path_values(n, 1), (n, got)


def main() -> int:
    install_alarm()
    confirm_closed_forms()
    table: dict[str, dict] = {VERIFY: {}, COMPUTE: {}}
    for name in LADDERS:
        for tiny in (False, True):
            for inst in build_workload(name, tiny).instances:
                g = inst.build(kt)
                family = inst.name[0]
                solved = solver_values(g, inst.k, inst.op == VERIFY)
                if family in "CP":
                    values = (cycle_values if family == "C" else path_values)(g.n, inst.k)
                    values = {key: values[key] for key in solved}
                    for key, got in solved.items():
                        assert got in (UNKNOWN, values[key]), (inst.name, key, got, values[key])
                else:
                    values = solved
                table[inst.op][inst.name] = values
                print(inst.name, inst.op, values, flush=True)
    (BENCH / "reference.json").write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
