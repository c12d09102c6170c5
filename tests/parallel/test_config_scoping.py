"""ParallelWalker config resolution: live per call, not frozen at init.

Callers switch worker counts mid-process (``using_config`` around one
dispatch), so a walker built without an explicit config must see
the config active *when it is called*.  These are regression tests for
the construction-time snapshot bug: a default-config walker built
outside a ``using_config`` scope used to ignore scopes entered later.
"""

import numpy as np

import repro
from repro.backends import engine
from repro.parallel import (
    ParallelConfig,
    ParallelWalker,
    get_default_config,
    set_default_config,
    using_config,
)


class TestCallTimeResolution:
    def test_walker_sees_scope_entered_after_construction(self):
        # Built under the process default (chunk_size 32768 -> serial
        # for this list), then called inside a scope that makes
        # dispatch worthwhile: the scope must win.
        walker = ParallelWalker()
        lst = repro.random_list(600, rng=11)
        base = engine.match4(lst, iterations=2)
        with using_config(ParallelConfig(workers=2, chunk_size=32)):
            got = engine.match4(lst, iterations=2, _walker=walker)
        assert walker.last_blocks == 2
        assert np.array_equal(got[0].tails, base[0].tails)
        assert got[1] == base[1]

    def test_walker_config_tracks_scope_exit(self):
        walker = ParallelWalker()
        before = walker.config
        with using_config(ParallelConfig(workers=3, chunk_size=64)):
            assert walker.config.resolve_workers() == 3
            assert walker.config.chunk_size == 64
        assert walker.config == before

    def test_explicit_config_stays_pinned(self):
        pinned = ParallelConfig(workers=2, chunk_size=16)
        walker = ParallelWalker(pinned)
        with using_config(ParallelConfig(workers=4, chunk_size=1 << 20)):
            assert walker.config is pinned
            lst = repro.random_list(600, rng=12)
            engine.match4(lst, iterations=2, _walker=walker)
            # the pinned chunk_size (16) dispatches even though the
            # ambient scope's (1 MiB) would have run serial.
            assert walker.last_blocks == 2

    def test_set_default_config_takes_effect_on_existing_walker(self):
        walker = ParallelWalker()
        original = get_default_config()
        try:
            set_default_config(ParallelConfig(workers=2, chunk_size=48))
            assert walker.config.chunk_size == 48
        finally:
            set_default_config(original)
        assert walker.config == original


class TestPoolReuseAcrossConfigs:
    def test_same_worker_count_reuses_pool_across_chunk_sizes(self):
        # chunk_size is consumed by the parent when slicing; the pool
        # cache keys on worker count only, so two configs differing
        # only in chunk_size must share one executor.
        from repro.parallel import pools

        lst = repro.random_list(700, rng=13)
        walker_a = ParallelWalker(ParallelConfig(workers=2, chunk_size=32))
        walker_b = ParallelWalker(ParallelConfig(workers=2, chunk_size=64))
        engine.match4(lst, iterations=2, _walker=walker_a)
        pool_a = pools.get_pool(2)
        engine.match4(lst, iterations=2, _walker=walker_b)
        pool_b = pools.get_pool(2)
        assert walker_a.last_blocks >= 2
        assert walker_b.last_blocks >= 2
        assert pool_a is pool_b

    def test_planner_style_worker_switch_is_bit_identical(self):
        # One dispatch wrapped in using_config with its own worker
        # count; back-to-back calls with different counts must agree
        # with serial and with each other.
        lst = repro.random_list(900, rng=14)
        base = engine.match4(lst, iterations=2)
        results = []
        for workers in (2, 3, 2):
            walker = ParallelWalker()
            with using_config(ParallelConfig(workers=workers,
                                             chunk_size=32)):
                got = engine.match4(lst, iterations=2, _walker=walker)
            assert walker.last_blocks == workers
            results.append(got)
        for got in results:
            assert np.array_equal(got[0].tails, base[0].tails)
            assert got[1] == base[1]
            assert got[2] == base[2]
