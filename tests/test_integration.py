"""Cross-module integration tests: the paper's pipeline end to end."""

import numpy as np
import pytest

import repro
from repro.apps.ranking import sequential_ranks


class TestPublicAPI:
    def test_version(self):
        assert repro.__version__

    def test_quickstart_from_docstring(self):
        lst = repro.random_list(1 << 12, rng=0)
        result = repro.maximal_matching(
            lst, algorithm="match4", backend="numpy", p=64, iterations=2
        )
        matching, report = result.matching, result.report
        assert matching.is_maximal
        assert report.cost >= report.time

    def test_all_exports_resolvable(self):
        for name in repro.__all__:
            assert getattr(repro, name) is not None


class TestPipeline:
    """Matching -> MIS / coloring / ranking / prefix, one input."""

    @pytest.fixture(scope="class")
    def lst(self):
        return repro.random_list(3000, rng=99)

    def test_matching_to_mis(self, lst):
        matching, _, _ = repro.match4(lst)
        mask, _ = repro.mis_from_matching(lst, matching)
        from repro.apps.mis import verify_independent_set

        verify_independent_set(lst, mask, maximal=True)

    def test_coloring_to_mis(self, lst):
        colors, _ = repro.three_coloring(lst)
        mask, _ = repro.mis_from_coloring(lst, colors)
        assert mask.sum() >= lst.n // 3

    def test_ranking_consistency(self, lst):
        r1, _, _ = repro.contraction_ranks(lst)
        r2, _ = repro.wyllie_ranks(lst)
        r3 = sequential_ranks(lst)
        assert np.array_equal(r1, r3)
        assert np.array_equal(r2, r3)

    def test_prefix_via_every_ranker(self, lst):
        values = np.arange(lst.n, dtype=np.int64)
        results = []
        for ranking in ("contraction", "wyllie", "sequential"):
            out, _ = repro.list_prefix_sums(lst, values, ranking=ranking)
            results.append(out)
        assert np.array_equal(results[0], results[1])
        assert np.array_equal(results[1], results[2])


class TestSimulatorTiersAgree:
    """Instruction-level PRAM vs vectorized cost tier."""

    def test_ranks_agree(self):
        from repro.pram.primitives import run_pointer_jumping_ranks

        lst = repro.random_list(128, rng=5)
        pram_ranks, _ = run_pointer_jumping_ranks(lst.next)
        vec_ranks, _ = repro.wyllie_ranks(lst)
        assert np.array_equal(pram_ranks, vec_ranks)

    def test_prefix_agree(self):
        from repro.pram.primitives import run_prefix_sum

        vals = np.arange(1, 100, dtype=np.int64)
        pram_prefix, _ = run_prefix_sum(vals)
        assert np.array_equal(pram_prefix, np.cumsum(vals))

    def test_log_g_agree(self):
        from repro.bits.iterated_log import log_g_pointer_jumping
        from repro.pram.primitives import run_main_list_log_g

        for n in (8, 1024, 65536):
            v, _ = log_g_pointer_jumping(n)
            p, _ = run_main_list_log_g(n, mode="CREW")
            assert v == p


class TestScaleSanity:
    """Larger-n smoke runs (cost tier only)."""

    def test_match4_at_2_20(self):
        n = 1 << 20
        lst = repro.random_list(n, rng=0)
        matching, report, stats = repro.match4(lst, p=n // stats_x(n), i=3)
        repro.verify_maximal_matching(lst, matching.tails)
        assert report.time * (n // stats_x(n)) <= 16 * n

    def test_matching_partition_lemma1_at_scale(self):
        n = 1 << 20
        lst = repro.random_list(n, rng=1)
        labels = repro.iterate_f(lst, 1)
        assert np.unique(labels).size <= 2 * 20


def stats_x(n):
    from repro.core.match4 import plan_rows

    return plan_rows(n, 3)
