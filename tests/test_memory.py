"""The solvers leave nothing behind: no reference cycle for the collector and
no tuple parked on the interpreter's free lists, so memory stays flat over
many calls.  How much a call leaves behind depends on the interpreter
version, so the module also runs without pytest, as a script under each
interpreter: ``PYTHONPATH=src python tests/test_memory.py``.
"""

from __future__ import annotations

import gc
import tracemalloc

from ktdom import d_xk, gamma_xk, gnp, verify_all

ROUNDS = 200
GROWTH_LIMIT = 64 * 1024  # bytes; the solvers used to leave about 1 MB over the rounds


def test_repeated_solves_keep_memory_flat():
    g = gnp(14, 0.8, 7)
    gamma_xk(g, 1)
    d_xk(g, 2)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for _ in range(ROUNDS):
            gamma_xk(g, 1)
            d_xk(g, 2)
        growth = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert growth < GROWTH_LIMIT, f"traced memory grew by {growth} bytes over {ROUNDS} rounds"


def test_verify_all_leaves_no_garbage_cycles():
    g = gnp(12, 0.6, 3)
    gc.collect()
    verify_all(g, 1)
    assert gc.collect() == 0


if __name__ == "__main__":
    for test in (test_repeated_solves_keep_memory_flat, test_verify_all_leaves_no_garbage_cycles):
        test()
        print(f"{test.__name__}: passed")
