"""Tests for the unified maximal_matching dispatcher."""

import numpy as np
import pytest

from repro.core.maximal_matching import maximal_matching
from repro.core.matching import verify_maximal_matching
from repro.errors import InvalidListError, InvalidParameterError
from repro.lists import NIL, random_list


class TestDispatch:
    @pytest.mark.parametrize(
        "alg", ["match1", "match2", "match3", "match4",
                "sequential", "random_mate"]
    )
    def test_every_algorithm(self, alg):
        lst = random_list(1000, rng=1)
        res = maximal_matching(lst, algorithm=alg, p=8)
        matching, report = res.matching, res.report
        verify_maximal_matching(lst, matching.tails)
        assert report.p == 8

    def test_raw_next_array_accepted(self):
        matching = maximal_matching([1, 2, NIL], algorithm="match4").matching
        assert matching.size == 1

    def test_raw_array_validated(self):
        with pytest.raises(InvalidListError):
            maximal_matching([0, NIL], algorithm="match4")  # self-loop

    def test_unknown_algorithm(self):
        with pytest.raises(InvalidParameterError, match="unknown algorithm"):
            maximal_matching(random_list(4, rng=0), algorithm="nope")

    def test_kwargs_forwarded(self):
        lst = random_list(512, rng=2)
        stats = maximal_matching(lst, algorithm="match4", iterations=3).stats
        assert stats.i == 3


class TestCrossAlgorithmAgreement:
    """All algorithms produce valid maximal matchings on shared inputs."""

    @pytest.mark.parametrize("n", [2, 3, 7, 50, 333])
    def test_sizes_in_band(self, n):
        lst = random_list(n, rng=n)
        sizes = {}
        for alg in ("match1", "match2", "match3", "match4", "sequential"):
            m = maximal_matching(lst, algorithm=alg).matching
            verify_maximal_matching(lst, m.tails)
            sizes[alg] = m.size
        ptrs = n - 1
        for alg, s in sizes.items():
            assert (ptrs + 2) // 3 <= s <= (ptrs + 1) // 2, alg

    def test_deterministic(self):
        lst = random_list(400, rng=9)
        for alg in ("match1", "match2", "match3", "match4"):
            a = maximal_matching(lst, algorithm=alg).matching
            b = maximal_matching(lst, algorithm=alg).matching
            assert np.array_equal(a.tails, b.tails), alg
