"""The typed result object and the kwarg-normalization layer."""

import warnings

import pytest

import repro
from repro.core.maximal_matching import normalize_algorithm_kwargs
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

    def test_unpacking_raises_type_error(self, result):
        with pytest.raises(TypeError):
            matching, report, stats = result

    def test_sequence_protocol(self, result):
        # A record, not a sequence: the fields are the only access path.
        with pytest.raises(TypeError):
            len(result)
        with pytest.raises(TypeError):
            result[0]

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

