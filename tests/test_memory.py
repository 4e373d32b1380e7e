"""The solvers leave nothing behind: no reference cycle for the collector and
no tuple parked on the interpreter's free lists, so memory stays flat over
many calls.  How much a call leaves behind depends on the interpreter
version, so the module also runs without pytest, as a script under each
interpreter: ``PYTHONPATH=src python tests/test_memory.py``.
"""

from __future__ import annotations

import gc
import sys

from ktdom import compute_invariants, d_xk, gamma_xk, gnp, random_regular, verify_all

ROUNDS = 200
BLOCK_LIMIT = 1000  # allocated blocks; the solvers used to leave about 7,000 over the rounds


def test_repeated_solves_keep_memory_flat():
    g = gnp(14, 0.8, 7)
    sparse = random_regular(24, 3, 2)  # its open-mode gamma search goes deep
    gamma_xk(g, 1)
    gamma_xk(sparse, 1, "open")
    d_xk(g, 2)
    gc.collect()
    before = sys.getallocatedblocks()
    for _ in range(ROUNDS):
        gamma_xk(g, 1)
        gamma_xk(sparse, 1, "open")
        d_xk(g, 2)
    growth = sys.getallocatedblocks() - before
    assert growth < BLOCK_LIMIT, f"allocated blocks grew by {growth} over {ROUNDS} rounds"


def test_verify_all_leaves_no_garbage_cycles():
    g = gnp(12, 0.6, 3)
    gc.collect()
    verify_all(g, 1)
    gamma_xk(random_regular(24, 3, 2), 1, "open")
    compute_invariants(gnp(8, 0.6, 1), 1, with_oracle=True)  # d_oracle's recursive search
    assert gc.collect() == 0


if __name__ == "__main__":
    for test in (test_repeated_solves_keep_memory_flat, test_verify_all_leaves_no_garbage_cycles):
        test()
        print(f"{test.__name__}: passed")
