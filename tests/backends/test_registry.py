"""The static dispatch table: which pairs exist, and the dispatch errors."""

import pytest

import repro
from repro.backends import ALGORITHMS, DISPATCH, ENGINE_LIMIT, engine, resolve
from repro.errors import InvalidParameterError


def _backends_for(algorithm):
    return sorted(b for b in DISPATCH if algorithm in DISPATCH[b])


class TestRegistry:
    def test_both_backends_registered(self):
        assert sorted(DISPATCH) == ["numpy", "reference"]
        assert set(DISPATCH["reference"]) == set(ALGORITHMS)
        assert set(DISPATCH["numpy"]) == set(engine._DRIVERS)

    def test_unknown_backend_lists_choices(self):
        with pytest.raises(InvalidParameterError, match="reference") as exc:
            resolve("match4", "bogus", 8)
        assert "auto" in str(exc.value)

    def test_backends_for(self):
        assert _backends_for("match1") == ["numpy", "reference"]
        assert _backends_for("match2") == ["reference"]
        assert _backends_for("sequential") == ["reference"]
        assert _backends_for("no_such_algorithm") == []

    def test_numpy_limit(self):
        engine._require_supported(ENGINE_LIMIT - 1)
        with pytest.raises(InvalidParameterError, match="reference"):
            engine._require_supported(ENGINE_LIMIT)


class TestDispatch:
    def test_unsupported_combination_names_alternatives(self):
        lst = repro.random_list(32, rng=0)
        with pytest.raises(InvalidParameterError) as exc:
            repro.maximal_matching(lst, algorithm="match2", backend="numpy")
        msg = str(exc.value)
        assert "match2" in msg and "reference" in msg

    def test_unknown_backend_via_api(self):
        lst = repro.random_list(32, rng=0)
        with pytest.raises(InvalidParameterError, match="unknown backend"):
            repro.maximal_matching(lst, backend="bogus")

    def test_algorithm_info_exposes_backends(self):
        info = repro.ALGORITHMS["match4"]
        assert _backends_for(info.name) == ["numpy", "reference"]
        assert info.optimal
        assert "iterations" in info.params and "i" not in info.params

    def test_describe_records(self):
        assert list(ALGORITHMS) == ["match1", "match2", "match3", "match4",
                                    "sequential", "random_mate"]
        assert ALGORITHMS["match1"].paper_section.startswith("§2")
        assert ALGORITHMS["match1"].params == {"kind", "rounds"}
        assert ALGORITHMS["sequential"].params == frozenset()

    @pytest.mark.parametrize("call", [
        lambda: repro.maximal_matching([1, -1], algorithm="nope"),
        lambda: repro.batch_maximal_matching([[1, -1]], algorithm="nope"),
        lambda: repro.resilient_matching(repro.random_list(8, rng=0),
                                         ladder=("nope",), backend="auto"),
        lambda: repro.contraction_ranks(repro.random_list(8, rng=0),
                                        matcher="nope"),
    ])
    def test_unknown_algorithm_same_error_everywhere(self, call):
        with pytest.raises(InvalidParameterError,
                           match="unknown algorithm 'nope'; choose from"):
            call()

    def test_unsupported_pair_same_error_in_batch(self):
        with pytest.raises(InvalidParameterError) as exc:
            repro.batch_maximal_matching([[1, -1]], algorithm="match3",
                                         backend="numpy")
        assert "backends implementing it: ['reference']" in str(exc.value)
