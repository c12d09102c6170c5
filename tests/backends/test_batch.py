"""``batch_maximal_matching``: many lists, one engine invocation."""

import numpy as np
import pytest

import repro
from repro.backends.batch import BatchMatchResult, batch_maximal_matching
from repro.errors import InvalidParameterError


def _mixed_lists(seeds, sizes):
    return [repro.random_list(n, rng=s) for s, n in zip(seeds, sizes)]


class TestBatchEquivalence:
    @pytest.mark.parametrize("algorithm,kwargs", [
        ("match1", {}),
        ("match4", {"iterations": 1}),
        ("match4", {"iterations": 2}),
    ])
    def test_per_list_identical(self, algorithm, kwargs):
        sizes = [1, 2, 3, 17, 33, 100, 256, 511]
        lists = _mixed_lists(range(len(sizes)), sizes)
        batch = batch_maximal_matching(lists, algorithm=algorithm, **kwargs)
        assert isinstance(batch, BatchMatchResult)
        assert len(batch.matchings) == len(lists)
        for lst, bm in zip(lists, batch.matchings):
            solo = repro.maximal_matching(
                lst, algorithm=algorithm, backend="numpy", **kwargs)
            assert np.array_equal(bm.tails, solo.matching.tails)

    def test_reference_backend_path(self):
        lists = _mixed_lists(range(4), [5, 1, 40, 13])
        vec = batch_maximal_matching(lists, backend="numpy")
        ref = batch_maximal_matching(lists, backend="reference")
        for a, b in zip(vec.matchings, ref.matchings):
            assert np.array_equal(a.tails, b.tails)
        # reports differ by design: the fused engine charges one
        # concurrent schedule (depth set by the largest list), the
        # reference path sums independent per-list runs
        assert vec.report.time > 0 and ref.report.time > 0

    def test_all_singletons(self):
        lists = _mixed_lists(range(5), [1] * 5)
        batch = batch_maximal_matching(lists)
        assert all(m.size == 0 for m in batch.matchings)

    def test_empty_input(self):
        batch = batch_maximal_matching([])
        assert batch.matchings == ()
        assert batch.stats.num_lists == 0

    def test_kind_lsb(self):
        lists = _mixed_lists(range(3), [64, 7, 200])
        batch = batch_maximal_matching(lists, algorithm="match1", kind="lsb")
        for lst, bm in zip(lists, batch.matchings):
            solo = repro.maximal_matching(
                lst, algorithm="match1", backend="numpy", kind="lsb")
            assert np.array_equal(bm.tails, solo.matching.tails)


class TestBatchApi:
    def test_stats(self):
        sizes = [8, 1, 30]
        lists = _mixed_lists(range(3), sizes)
        batch = batch_maximal_matching(lists)
        assert batch.stats.num_lists == 3
        assert batch.stats.total_nodes == sum(sizes)
        assert batch.stats.sizes == tuple(sizes)
        assert batch.stats.matched == tuple(m.size for m in batch.matchings)

    def test_sequence_protocol(self):
        lists = _mixed_lists(range(3), [8, 9, 10])
        batch = batch_maximal_matching(lists)
        assert len(batch) == 3
        assert list(batch) == list(batch.matchings)
        assert batch[1] is batch.matchings[1]

    def test_iterations_kwarg(self):
        lists = _mixed_lists(range(2), [16, 17])
        batch = batch_maximal_matching(lists, algorithm="match4",
                                       iterations=1)
        assert batch.stats.num_lists == 2
        for lst, m in zip(lists, batch.matchings):
            single = repro.maximal_matching(lst, algorithm="match4",
                                            iterations=1)
            assert np.array_equal(m.tails, single.matching.tails)

    def test_unsupported_algorithm_on_numpy(self):
        lists = _mixed_lists(range(2), [16, 17])
        with pytest.raises(InvalidParameterError, match="match2"):
            batch_maximal_matching(lists, algorithm="match2")

    def test_top_level_export(self):
        assert repro.batch_maximal_matching is batch_maximal_matching
