"""``backend="auto"``: one static table, bit-identical to the explicit pick.

:func:`repro.backends.resolve_auto` is the only place ``"auto"`` is
resolved.  It answers ``"numpy"`` where the engine implements the
algorithm and accepts ``n``, ``"reference"`` everywhere else — and every
entry point that takes ``backend="auto"`` must return exactly what the
explicit request for that backend returns.
"""

import numpy as np
import pytest

import repro
import repro.baselines  # noqa: F401  (registers the baseline algorithms)
from repro.backends import ENGINE_LIMIT, resolve_auto
from repro.backends.batch import batch_maximal_matching
from repro.core.maximal_matching import ALGORITHMS
from repro.resilience import resilient_matching
from repro.service.workload import WorkloadError, parse_workload

#: The algorithms the numpy engine implements.
ENGINE_ALGORITHMS = {"match1", "match4"}


def _expected(algorithm, n):
    if algorithm in ENGINE_ALGORITHMS and n < ENGINE_LIMIT:
        return "numpy"
    return "reference"


class TestTable:
    @pytest.mark.parametrize("n", [1, 2, 1024, ENGINE_LIMIT - 1,
                                   ENGINE_LIMIT])
    def test_every_registered_algorithm(self, n):
        assert set(ALGORITHMS) > ENGINE_ALGORITHMS
        for algorithm in ALGORITHMS:
            assert resolve_auto(algorithm, n) == _expected(algorithm, n), \
                (algorithm, n)


def _same(a, b):
    assert np.array_equal(a.matching.tails, b.matching.tails)
    assert a.report == b.report
    assert a.stats == b.stats


class TestEntryPoints:
    @pytest.mark.parametrize("algorithm", ["match1", "match2", "match4",
                                           "sequential"])
    @pytest.mark.parametrize("n", [1, 2, 300])
    def test_maximal_matching(self, algorithm, n):
        lst = repro.random_list(n, rng=n)
        auto = repro.maximal_matching(lst, algorithm=algorithm,
                                      backend="auto", p=4)
        explicit = repro.maximal_matching(
            lst, algorithm=algorithm, backend=_expected(algorithm, n), p=4)
        assert auto.backend == explicit.backend == _expected(algorithm, n)
        _same(auto, explicit)

    @pytest.mark.parametrize("algorithm", ["match1", "match2", "match4"])
    def test_batch(self, algorithm):
        lists = [repro.random_list(m, rng=m) for m in (1, 5, 64, 257)]
        auto = batch_maximal_matching(lists, algorithm=algorithm,
                                      backend="auto", p=2)
        pick = _expected(algorithm, 257)
        explicit = batch_maximal_matching(lists, algorithm=algorithm,
                                          backend=pick, p=2)
        assert auto.backend == explicit.backend == pick
        for a, b in zip(auto.matchings, explicit.matchings):
            assert np.array_equal(a.tails, b.tails)
        assert auto.report == explicit.report
        assert auto.stats == explicit.stats

    @pytest.mark.parametrize("ladder", [("match4", "sequential"),
                                        ("match2", "sequential")])
    def test_resilient(self, ladder):
        lst = repro.random_list(200, rng=3)
        auto = resilient_matching(lst, ladder=ladder, backend="auto")
        explicit = resilient_matching(
            lst, ladder=ladder, backend=_expected(ladder[0], lst.n))
        assert auto.result.backend == explicit.result.backend \
            == _expected(ladder[0], lst.n)
        _same(auto.result, explicit.result)
        assert auto.served_by == explicit.served_by


class TestParseWorkload:
    PARSE = dict(default_algorithm="match4", default_backend="numpy")

    @pytest.mark.parametrize("algorithm", ["match1", "match2"])
    def test_auto_shares_the_explicit_identity(self, algorithm):
        body = {"n": 128, "seed": 4, "algorithm": algorithm}
        auto = parse_workload({**body, "backend": "auto"}, **self.PARSE)
        pick = _expected(algorithm, 128)
        explicit = parse_workload({**body, "backend": pick}, **self.PARSE)
        assert auto.backend == pick
        assert auto.cache_key() == explicit.cache_key()

    def test_auto_as_server_default(self):
        w = parse_workload({"next": [1, 2, -1]}, default_algorithm="match4",
                           default_backend="auto")
        assert w.backend == "numpy"

    def test_unknown_backend_rejected(self):
        with pytest.raises(WorkloadError, match="unknown backend"):
            parse_workload({"n": 8, "backend": "quantum"}, **self.PARSE)
