"""Tests for repro.lists.generators: workload layouts."""

import numpy as np
import pytest

from repro.errors import InvalidParameterError
from repro.lists import (
    blocked_list,
    random_list,
    reversed_list,
    sawtooth_list,
    sequential_list,
)


@pytest.mark.parametrize("n", [1, 2, 3, 7, 64, 1000])
class TestAllGeneratorsProduceValidLists:
    def test_random(self, n):
        lst = random_list(n, rng=0)
        assert sorted(lst) == list(range(n))

    def test_sequential(self, n):
        lst = sequential_list(n)
        assert list(lst) == list(range(n))

    def test_reversed(self, n):
        lst = reversed_list(n)
        assert list(lst) == list(range(n - 1, -1, -1))

    def test_sawtooth(self, n):
        lst = sawtooth_list(n)
        assert sorted(lst) == list(range(n))

    def test_blocked(self, n):
        lst = blocked_list(n, block=4, rng=0)
        assert sorted(lst) == list(range(n))


class TestRandomList:
    def test_seed_determinism(self):
        assert random_list(100, rng=7) == random_list(100, rng=7)

    def test_different_seeds_differ(self):
        assert random_list(100, rng=7) != random_list(100, rng=8)

    def test_generator_accepted(self):
        gen = np.random.default_rng(3)
        lst = random_list(50, rng=gen)
        assert lst.n == 50

    def test_rejects_zero(self):
        with pytest.raises(InvalidParameterError):
            random_list(0)


class TestSawtooth:
    def test_interleaves_halves(self):
        lst = sawtooth_list(8)
        assert list(lst) == [0, 4, 1, 5, 2, 6, 3, 7]

    def test_every_pointer_crosses_the_bisector(self):
        n = 64
        lst = sawtooth_list(n)
        tails, heads = lst.pointers()
        mid = n // 2
        crosses = ((tails < mid) & (heads >= mid)) | (
            (tails >= mid) & (heads < mid)
        )
        assert crosses.all()


class TestBlocked:
    def test_block_locality(self):
        n, block = 64, 8
        lst = blocked_list(n, block, rng=1)
        order = lst.order
        # each block of the order is a permutation of one address block
        for s in range(0, n, block):
            chunk = sorted(order[s:s + block].tolist())
            assert chunk == list(range(s, s + block))

    def test_rejects_bad_block(self):
        with pytest.raises(InvalidParameterError):
            blocked_list(10, 0)

    def test_block_one_is_sequential(self):
        assert list(blocked_list(20, 1, rng=0)) == list(range(20))


class TestStructuredLayouts:
    """The bit-reversal / Gray-code / interleaved layouts."""

    @pytest.mark.parametrize("n", [1, 2, 8, 64, 256])
    def test_bit_reversal_is_permutation(self, n):
        from repro.lists import bit_reversal_list

        assert sorted(bit_reversal_list(n)) == list(range(n))

    def test_bit_reversal_is_involution_of_order(self):
        from repro.lists import bit_reversal_list

        lst = bit_reversal_list(16)
        order = lst.order
        # applying the permutation twice is the identity
        assert sorted(order[order].tolist()) == list(range(16))
        assert (order[order] == np.arange(16)).all()

    def test_bit_reversal_rejects_non_power(self):
        from repro.errors import InvalidParameterError
        from repro.lists import bit_reversal_list

        with pytest.raises(InvalidParameterError):
            bit_reversal_list(12)

    @pytest.mark.parametrize("n", [1, 2, 8, 64, 256])
    def test_gray_code_is_permutation(self, n):
        from repro.lists import gray_code_list

        assert sorted(gray_code_list(n)) == list(range(n))

    def test_gray_code_single_bit_hops(self):
        from repro.lists import gray_code_list

        lst = gray_code_list(64)
        tails, heads = lst.pointers()
        diffs = tails ^ heads
        # every hop flips exactly one bit
        assert ((diffs & (diffs - 1)) == 0).all()

    def test_gray_code_f_determined_by_flipped_bit(self):
        # on a Gray-code list, f's level equals the flipped bit index
        from repro.core.bisection import bisection_partition
        from repro.lists import gray_code_list

        lst = gray_code_list(32)
        part = bisection_partition(lst)
        flipped = np.log2((part.tails ^ part.heads).astype(float))
        assert np.array_equal(part.level, flipped.astype(np.int64))

    @pytest.mark.parametrize("n,ways", [(10, 3), (8, 2), (64, 8), (7, 7),
                                        (9, 1)])
    def test_interleaved_is_permutation(self, n, ways):
        from repro.lists import interleaved_list

        assert sorted(interleaved_list(n, ways)) == list(range(n))

    def test_interleaved_two_way_matches_sawtooth(self):
        from repro.lists import interleaved_list, sawtooth_list

        assert list(interleaved_list(8, 2)) == list(sawtooth_list(8))

    def test_interleaved_validation(self):
        from repro.errors import InvalidParameterError
        from repro.lists import interleaved_list

        with pytest.raises(InvalidParameterError):
            interleaved_list(5, 9)

    @pytest.mark.parametrize("maker_name", ["bit_reversal_list",
                                            "gray_code_list"])
    def test_matching_works_on_structured_layouts(self, maker_name):
        import repro
        from repro.core.matching import verify_maximal_matching

        maker = getattr(repro, maker_name)
        lst = maker(256)
        for alg in ("match1", "match2", "match4"):
            m = repro.maximal_matching(lst, algorithm=alg).matching
            verify_maximal_matching(lst, m.tails)
