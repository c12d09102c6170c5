"""The typed result object and the kwarg-normalization layer."""

import warnings

import pytest

import repro
from repro.core.maximal_matching import (
    ALGORITHMS,
    normalize_algorithm_kwargs,
    register_algorithm,
)
from repro.core.result import MatchResult
from repro.errors import InvalidParameterError


@pytest.fixture(scope="module")
def result():
    lst = repro.random_list(256, rng=0)
    return repro.maximal_matching(lst, algorithm="match4", iterations=2)


class TestMatchResult:
    def test_fields(self, result):
        assert isinstance(result, MatchResult)
        assert result.algorithm == "match4"
        assert result.backend == "reference"
        assert result.matching.is_maximal
        assert result.report.time > 0

    def test_unpacks_as_legacy_triple(self, result):
        matching, report, stats = result
        assert matching is result.matching
        assert report is result.report
        assert stats is result.stats

    def test_sequence_protocol(self, result):
        assert len(result) == 3
        assert result[0] is result.matching
        assert result[1] is result.report
        assert result[2] is result.stats

    def test_frozen(self, result):
        with pytest.raises(AttributeError):
            result.backend = "numpy"

    def test_backend_field_reflects_call(self):
        lst = repro.random_list(128, rng=1)
        res = repro.maximal_matching(lst, backend="numpy")
        assert res.backend == "numpy"


class TestKwargNormalization:
    def test_canonical_name_no_warning(self):
        lst = repro.random_list(128, rng=2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            repro.maximal_matching(lst, algorithm="match4", iterations=1)

    def test_unknown_kwarg_lists_valid_names(self):
        lst = repro.random_list(64, rng=3)
        # ``i`` is Match4's retired spelling of ``iterations``.
        for key in ("iteration", "i"):
            for backend in ("reference", "numpy"):
                with pytest.raises(InvalidParameterError) as exc:
                    repro.maximal_matching(lst, algorithm="match4",
                                           backend=backend, **{key: 2})
                msg = str(exc.value)
                assert repr(key) in msg and "'iterations'" in msg

    def test_alias_and_canonical_together_rejected(self):
        with pytest.raises(InvalidParameterError, match="unknown kwarg 'i'"):
            normalize_algorithm_kwargs("match4", {"i": 1, "iterations": 2})

    def test_unknown_algorithm(self):
        lst = repro.random_list(64, rng=3)
        with pytest.raises(InvalidParameterError, match="unknown algorithm"):
            repro.maximal_matching(lst, algorithm="match5")


class TestRegistration:
    def test_duplicate_rejected(self):
        with pytest.raises(InvalidParameterError, match="already registered"):
            register_algorithm("match4", repro.match4)

    def test_custom_algorithm_roundtrip(self):
        def trivial(lst, *, p=1, flavor="plain"):
            return repro.match1(lst, p=p)

        register_algorithm(
            "trivial_test", trivial,
            paper_section="tests only", optimal=False,
        )
        try:
            info = ALGORITHMS["trivial_test"]
            assert info.params == frozenset({"flavor"})
            assert info.backends == ["reference"]
            lst = repro.random_list(64, rng=4)
            res = repro.maximal_matching(
                lst, algorithm="trivial_test", flavor="x")
            assert res.matching.is_maximal
            with pytest.raises(InvalidParameterError):
                repro.maximal_matching(lst, algorithm="trivial_test", bad=1)
        finally:
            del ALGORITHMS._infos["trivial_test"]
