"""Acceptance gate: one test and one printed pass/fail line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
complete.  Every expected value here is either a closed-form fact about a
named family or a brute-force oracle recomputation; nothing is copied from
solver output.
"""

from __future__ import annotations

import random
import time

from ktdom import (
    DomaticPartition,
    clique_chain,
    complement,
    complete,
    complete_bipartite,
    cycle,
    d_oracle,
    d_xk,
    disjoint_union,
    gamma_oracle,
    gamma_xk,
    gnp,
    is_domatic_partition,
    is_ktuple_dominating,
    verify_all,
    zelinka_partition,
)
from strategies import random_graph, sweep
from test_domination import exact_size_minimum


def _line(num: int, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} criterion {num}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_1_complete_graph_domatic_numbers():
    failures = []
    worst = 0.0
    for n in range(1, 13):
        for k in range(1, 5):
            if n - 1 < k - 1:
                continue
            start = time.perf_counter()
            got = d_xk(complete(n), k).value
            elapsed = time.perf_counter() - start
            worst = max(worst, elapsed)
            if got != n // k:
                failures.append((n, k, got))
            if elapsed >= 1.0:
                failures.append((n, k, f"{elapsed:.2f}s"))
    _line(1, not failures,
          f"d_xk(K_n) = floor(n/k) over n in 1..12, k in 1..4; worst solve {worst * 1e3:.1f} ms"
          + (f"; failures: {failures}" if failures else ""))


def test_criterion_2_balanced_bipartite_gamma():
    failures = []
    for k in range(2, 6):
        got = gamma_xk(complete_bipartite(k - 1, k - 1), k).value
        if got != 2 * k - 2:
            failures.append((k, got))
    _line(2, not failures,
          "gamma_xk(K_{k-1,k-1}) = 2k-2 for k in 2..5"
          + (f"; failures: {failures}" if failures else ""))


def test_criterion_3_sharpness_suite():
    failures = []

    def expect(label, got, want):
        if got != want:
            failures.append(f"{label}: got {got}, want {want}")

    # disjoint cliques attain gamma + d = n + 1
    for parts, k in ((1, 3), (2, 3), (3, 3), (2, 4)):
        g = disjoint_union([complete(k)] * parts)
        expect(f"{parts}K_{k} sum", gamma_xk(g, k).value + d_xk(g, k).value, g.n + 1)
    # even cliques attain the refined sum n/2 + 2
    for k in (2, 3, 4):
        g = complete(2 * k)
        expect(f"K_{2 * k} refined sum", gamma_xk(g, k).value + d_xk(g, k).value, k + 2)
    # balanced bipartite plus complement attains floor((2k+1)/k) = 2
    for k in (2, 3):
        g = complete_bipartite(k, k)
        expect(f"K_{k},{k} complement sum",
               d_xk(g, k).value + d_xk(complement(g), k).value, 2)
    # scaled balanced bipartite: total and plain variants agree at m
    for m, k in ((1, 2), (2, 2), (1, 3)):
        g = complete_bipartite(m * k, m * k)
        expect(f"K_{m * k},{m * k} closed", d_xk(g, k).value, m)
        expect(f"K_{m * k},{m * k} open", d_xk(g, k, "open").value, m)
    # chained cliques separate the two variants
    for k in (1, 2, 3):
        g = clique_chain(k)
        expect(f"clique_chain({k}) closed", d_xk(g, k).value, 2)
        expect(f"clique_chain({k}) open", d_xk(g, k, "open").value, 1)
    # the 4-cycle does not separate them at k = 1
    expect("C4 closed", d_xk(cycle(4), 1).value, 2)
    expect("C4 open", d_xk(cycle(4), 1, "open").value, 2)

    _line(3, not failures,
          "sharpness families attain their bounds exactly"
          + (f"; failures: {failures}" if failures else ""))


def test_criterion_4_solver_oracle_equivalence():
    start = time.perf_counter()
    mismatches = []
    compared = 0
    for g in sweep(5):
        for k in (1, 2, 3):
            for mode, need in (("closed", k - 1), ("open", k)):
                if g.min_degree < need:
                    continue
                fast_gamma = gamma_xk(g, k, mode).value
                slow_gamma = gamma_oracle(g, k, mode).value
                fast_d = d_xk(g, k, mode).value
                slow_d = d_oracle(g, k, mode).value
                compared += 1
                if fast_gamma != slow_gamma:
                    mismatches.append(("gamma", g.n, g.edges(), k, mode, fast_gamma, slow_gamma))
                if fast_d != slow_d:
                    mismatches.append(("d", g.n, g.edges(), k, mode, fast_d, slow_d))
    elapsed = time.perf_counter() - start
    ok = not mismatches and elapsed < 600
    _line(4, ok,
          f"solver = oracle on all labeled graphs n <= 5 ({compared} admissible pairs, "
          f"{elapsed:.1f}s)" + (f"; mismatches: {mismatches[:3]}" if mismatches else ""))


def test_criterion_5_zero_violations():
    start = time.perf_counter()
    violated = []
    instances = 0
    for g in sweep(5):
        for k in (1, 2, 3):
            report = verify_all(g, k)
            instances += 1
            for c in report.violations:
                violated.append((g.n, g.edges(), k, c.check_id))
    probabilities = (0.3, 0.5, 0.8)
    for i in range(500):
        g = gnp(6 + i % 5, probabilities[i % 3], 424242 + i)
        for k in (1, 2, 3):
            report = verify_all(g, k)
            instances += 1
            for c in report.violations:
                violated.append((g.n, g.edges(), k, c.check_id))
    elapsed = time.perf_counter() - start
    ok = not violated and elapsed < 900
    _line(5, ok,
          f"zero violated checks across {instances} instance reports "
          f"(exhaustive n <= 5 plus 500 seeded G(n,p); {elapsed:.1f}s)"
          + (f"; violations: {violated[:3]}" if violated else ""))


def test_criterion_6_constructive_partition():
    failures = []

    def check_one(g, k, label):
        required = k * (g.n - g.min_degree)
        if required > g.n:
            return
        p = zelinka_partition(g, k)
        if p is None or len(p.classes) != g.n // required:
            failures.append(f"{label}: wrong class count")
            return
        for cls in p.classes:
            if not is_ktuple_dominating(g, cls, k):
                failures.append(f"{label}: invalid class {cls}")

    cases = 0
    for parts in range(1, 5):
        for k in range(1, 4):
            check_one(complete(parts * k), k, f"K_{parts * k} at k={k}")
            cases += 1
    for i in range(100):
        g = gnp(10, 0.9, 31337 + i)
        for k in (1, 2):
            if g.min_degree >= k - 1:
                check_one(g, k, f"G(10,0.9) seed {31337 + i} k={k}")
                cases += 1
    _line(6, not failures,
          f"balanced id-order blocks give floor(n/(k(n-delta))) valid classes across {cases} cases"
          + (f"; failures: {failures[:3]}" if failures else ""))


def test_criterion_7_exact_size_characterization():
    mismatches = []
    compared = 0
    for g in sweep(5):
        for k in (1, 2, 3):
            if g.min_degree < k - 1:
                continue
            compared += 1
            smallest = exact_size_minimum(g, k)
            reference = gamma_xk(g, k).value
            if smallest != reference:
                mismatches.append((g.n, g.edges(), k, smallest, reference))
    _line(7, not mismatches,
          f"min exact-size decomposition = gamma_xk on the full n <= 5 sweep ({compared} pairs)"
          + (f"; mismatches: {mismatches[:3]}" if mismatches else ""))


def test_criterion_8_randomized_property_suite():
    cases_per_property = 1000
    failures = []

    # superset closure
    rng = random.Random(81001)
    done = 0
    while done < cases_per_property:
        g = random_graph(rng, 2, 8)
        k = rng.randint(1, 3)
        if g.min_degree < k - 1:
            continue
        witness = set(gamma_xk(g, k).witness)
        extra = {v for v in range(g.n) if rng.random() < 0.5}
        if not is_ktuple_dominating(g, witness | extra, k):
            failures.append(f"superset closure: n={g.n} edges={g.edges()} k={k}")
        done += 1

    # monotonicity in k (gamma up, d down)
    rng = random.Random(81002)
    done = 0
    while done < cases_per_property:
        g = random_graph(rng, 2, 8)
        k = rng.randint(1, 2)
        if g.min_degree < k:
            continue
        if gamma_xk(g, k).value > gamma_xk(g, k + 1).value:
            failures.append(f"gamma monotone: n={g.n} edges={g.edges()} k={k}")
        if d_xk(g, k + 1).value > d_xk(g, k).value:
            failures.append(f"d antitone: n={g.n} edges={g.edges()} k={k}")
        done += 1

    # complement involution
    rng = random.Random(81003)
    for _ in range(cases_per_property):
        g = random_graph(rng, 1, 9)
        if complement(complement(g)) != g:
            failures.append(f"complement involution: n={g.n} edges={g.edges()}")

    # determinism: same inputs, identical outputs including witnesses
    rng = random.Random(81004)
    done = 0
    while done < cases_per_property:
        n = rng.randint(4, 9)
        seed = rng.getrandbits(32)
        if gnp(n, 0.5, seed) != gnp(n, 0.5, seed):
            failures.append(f"gnp determinism: n={n} seed={seed}")
        g = gnp(n, 0.6, seed)
        k = rng.randint(1, 2)
        if g.min_degree < k - 1:
            continue
        first, second = gamma_xk(g, k), gamma_xk(g, k)
        if (first.value, first.witness) != (second.value, second.witness):
            failures.append(f"gamma determinism: n={n} seed={seed} k={k}")
        if d_xk(g, k).witness.classes != d_xk(g, k).witness.classes:
            failures.append(f"d determinism: n={n} seed={seed} k={k}")
        done += 1

    # certificate soundness
    rng = random.Random(81005)
    done = 0
    while done < cases_per_property:
        g = random_graph(rng, 2, 8)
        k = rng.randint(1, 3)
        if g.min_degree < k - 1:
            continue
        gres = gamma_xk(g, k)
        if len(gres.witness) != gres.value or not is_ktuple_dominating(g, gres.witness, k):
            failures.append(f"gamma certificate: n={g.n} edges={g.edges()} k={k}")
        dres = d_xk(g, k)
        witness = DomaticPartition(dres.witness.classes, k, "closed")
        if len(dres.witness.classes) != dres.value or not is_domatic_partition(g, witness):
            failures.append(f"d certificate: n={g.n} edges={g.edges()} k={k}")
        done += 1

    _line(8, not failures,
          f"five module invariants hold on {cases_per_property} randomized cases each"
          + (f"; failures: {failures[:3]}" if failures else ""))
