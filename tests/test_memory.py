"""The solvers leave nothing behind: no reference cycle for the collector and
no tuple parked on the interpreter's free lists, so memory stays flat over
many calls; and `gnp` and `ktdom gen` stream their edges, so their memory
does not grow with the edge count.  How much a call leaves behind depends on
the interpreter version, so the module also runs without pytest, as a script
under each interpreter: ``PYTHONPATH=src python tests/test_memory.py``.
"""

from __future__ import annotations

import gc
import os
import sys
import tracemalloc

from ktdom import compute_invariants, d_xk, gamma_xk, gnp, kjoin_decomposition_exists, random_regular, verify_all
from ktdom.cli import main
from ktdom.reports import cross_check

ROUNDS = 200
BLOCK_LIMIT = 1000  # allocated blocks; the solvers used to leave about 7,000 over the rounds


def growth_over_rounds(solve) -> int:
    """Allocated blocks gained over ROUNDS calls of solve, after one warm-up call."""
    solve()
    gc.collect()
    before = sys.getallocatedblocks()
    for _ in range(ROUNDS):
        solve()
    return sys.getallocatedblocks() - before


def test_repeated_solves_keep_memory_flat():
    g = gnp(14, 0.8, 7)
    sparse = random_regular(24, 3, 2)  # its open-mode gamma search goes deep
    gamma = gamma_xk(g, 2).value

    def solve():
        gamma_xk(g, 1)
        gamma_xk(sparse, 1, "open")
        d_xk(g, 2)
        kjoin_decomposition_exists(g, 2, gamma - 1)  # C11's one probe when it holds

    growth = growth_over_rounds(solve)
    assert growth < BLOCK_LIMIT, f"allocated blocks grew by {growth} over {ROUNDS} rounds"


def test_repeated_cross_checks_keep_memory_flat():
    g = gnp(9, 0.7, 2)
    report = compute_invariants(g, 1)
    # the oracles: each one's table of valid and minimal masks, and d_oracle's packing search
    growth = growth_over_rounds(lambda: cross_check(g, report))
    assert growth < BLOCK_LIMIT, f"allocated blocks grew by {growth} over {ROUNDS} rounds"


def test_verify_all_leaves_no_garbage_cycles():
    g = gnp(12, 0.6, 3)
    gc.collect()
    verify_all(g, 1)
    gamma_xk(random_regular(24, 3, 2), 1, "open")
    compute_invariants(gnp(8, 0.6, 1), 1, with_oracle=True)  # d_oracle's recursive packing search
    assert gc.collect() == 0


def test_gen_streams_its_output():
    # K_300 is 44,850 edge lines, about 350 KB of text; the writer holds one row at a time
    tracemalloc.start()
    try:
        code = main(["gen", "complete", "300", "-o", os.devnull])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < 1_000_000, f"peak traced memory {peak} bytes"


def test_gnp_streams_its_edges():
    # G(600, 0.9) has about 162,000 edges; a list of them peaked at about 15 MB
    tracemalloc.start()
    try:
        gnp(600, 0.9, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000, f"peak traced memory {peak} bytes"


if __name__ == "__main__":
    for test in (
        test_repeated_solves_keep_memory_flat,
        test_repeated_cross_checks_keep_memory_flat,
        test_verify_all_leaves_no_garbage_cycles,
        test_gen_streams_its_output,
        test_gnp_streams_its_edges,
    ):
        test()
        print(f"{test.__name__}: passed")
