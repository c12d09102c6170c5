"""The numpy engine keeps nothing alive once a call returns."""

import gc
import tracemalloc

import numpy as np

import repro
from repro.backends import engine

MIB = 1 << 20


def test_engine_keeps_no_list_alive():
    # Module-level tables (f pair tables, mex tables) are built once per
    # process; build them before tracing starts.
    engine.match4(repro.random_list(1 << 16, rng=1))
    gc.collect()
    lst = repro.random_list(1 << 16, rng=2)
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        matching, _, _ = engine.match4(lst)
        assert matching.size > 0
        del matching, lst
        gc.collect()
        after, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert abs(after - before) < MIB, (before, after)


def test_arena_of_one_shares_the_list_arrays():
    lst = repro.random_list(64, rng=3)
    arena = engine._Arena([lst])
    assert arena.nxt is lst.next
    assert arena.pdx is lst.pred
    assert arena.num_lists == 1
    assert np.array_equal(arena.cnext, lst.circular_next())
