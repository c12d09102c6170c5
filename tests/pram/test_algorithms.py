"""Tests for repro.pram.algorithms: the paper's algorithms as real
lockstep PRAM programs, cross-checked against the vectorized tier."""

import numpy as np
import pytest

from repro.bits.iterated_log import G
from repro.core.cutwalk import cut_and_walk
from repro.core.functions import iterate_f
from repro.core.match4 import match4
from repro.core.matching import verify_maximal_matching
from repro.lists import random_list, reversed_list, sawtooth_list
from repro.pram.algorithms import run_iterate_f, run_match1, run_match4


class TestIterateFProgram:
    @pytest.mark.parametrize("n", [2, 3, 8, 33, 128])
    @pytest.mark.parametrize("rounds", [1, 2, 4])
    def test_matches_vectorized(self, n, rounds):
        lst = random_list(n, rng=n)
        labels, _ = run_iterate_f(lst, rounds)
        assert np.array_equal(labels, iterate_f(lst, rounds))

    @pytest.mark.parametrize("p", [1, 3, 8, 32])
    def test_brent_simulation_any_p(self, p):
        # double-buffered rounds: the p < n schedule must still be a
        # synchronous round (read only pre-round labels)
        lst = random_list(32, rng=1)
        labels, _ = run_iterate_f(lst, 3, p=p)
        assert np.array_equal(labels, iterate_f(lst, 3))

    def test_erew_clean(self):
        # running at all under mode="EREW" is the claim
        lst = random_list(64, rng=2)
        _, report = run_iterate_f(lst, 2, mode="EREW")
        assert report.steps > 0

    def test_brent_time_scaling(self):
        lst = random_list(64, rng=3)
        _, r_full = run_iterate_f(lst, 2, p=64)
        _, r_half = run_iterate_f(lst, 2, p=32)
        # half the processors, twice the slots per round (plus the
        # commit pass overhead)
        assert r_half.steps > 1.5 * r_full.steps

    def test_zero_rounds(self):
        lst = random_list(8, rng=4)
        labels, _ = run_iterate_f(lst, 0)
        assert labels.tolist() == list(range(8))


class TestMatch1Program:
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 8, 17, 64, 200])
    def test_maximal_and_identical(self, n):
        lst = random_list(n, rng=n)
        tails, _ = run_match1(lst)
        verify_maximal_matching(lst, tails)
        expected, _ = cut_and_walk(lst, iterate_f(lst, G(n)))
        assert np.array_equal(tails, expected)

    def test_erew_clean_by_construction(self):
        lst = random_list(100, rng=5)
        tails, report = run_match1(lst, mode="EREW")
        verify_maximal_matching(lst, tails)

    @pytest.mark.parametrize("maker", [reversed_list, sawtooth_list])
    def test_adversarial_layouts(self, maker):
        lst = maker(96)
        tails, _ = run_match1(lst)
        verify_maximal_matching(lst, tails)

    def test_singleton(self):
        tails, _ = run_match1(random_list(1))
        assert tails.size == 0

    def test_step_count_is_g_rounds_plus_constants(self):
        # time O(G(n)) at p = n: steps grow additively, not with n
        _, small = run_match1(random_list(64, rng=6))
        _, large = run_match1(random_list(4096, rng=6))
        assert large.steps <= small.steps + 8  # one extra f round at most


class TestMatch4Program:
    @pytest.mark.parametrize("n", [2, 3, 5, 9, 33, 100, 257])
    @pytest.mark.parametrize("i", [1, 2])
    def test_maximal_and_identical_to_vectorized(self, n, i):
        lst = random_list(n, rng=n + i)
        tails, _ = run_match4(lst, i=i, mode="EREW")
        verify_maximal_matching(lst, tails)
        m, _, _ = match4(lst, i=i)
        assert np.array_equal(tails, m.tails)

    def test_erew_legality_is_machine_checked(self):
        # The headline: the full Match4 choreography (sorts, both
        # WalkDown sweeps, cut, walk) survives the EREW conflict
        # checker.
        lst = random_list(300, rng=7)
        tails, report = run_match4(lst, i=2, mode="EREW")
        verify_maximal_matching(lst, tails)
        assert report.nprocs < lst.n  # genuinely column-parallel

    @pytest.mark.parametrize("maker", [reversed_list, sawtooth_list])
    def test_adversarial_layouts(self, maker):
        lst = maker(120)
        tails, _ = run_match4(lst)
        verify_maximal_matching(lst, tails)

    def test_steps_independent_of_columns(self):
        # time Theta(x + walk) at p = y: more columns (larger n, same
        # x) must not increase the step count.
        _, r1 = run_match4(random_list(128, rng=8), i=2)
        _, r2 = run_match4(random_list(1024, rng=8), i=2)
        x1 = r1.steps
        x2 = r2.steps
        assert x2 <= x1 * 1.5  # only x's growth with log^(i) n shows

    def test_singleton(self):
        tails, _ = run_match4(random_list(1))
        assert tails.size == 0


class TestMatch2Program:
    @pytest.mark.parametrize("n", [2, 3, 5, 16, 33, 100, 257])
    def test_maximal_and_identical(self, n):
        from repro.core.match2 import match2
        from repro.pram.algorithms import run_match2

        lst = random_list(n, rng=n)
        tails, _ = run_match2(lst, mode="EREW")
        verify_maximal_matching(lst, tails)
        m, _, _ = match2(lst)
        assert np.array_equal(tails, m.tails)

    def test_erew_broadcast_is_real(self):
        # The broadcast tree is what makes the total distribution EREW;
        # its cost shows as Theta(S log n) machine steps.
        from repro.pram.algorithms import run_match2

        lst_small = random_list(64, rng=9)
        lst_large = random_list(1024, rng=9)
        _, r_small = run_match2(lst_small)
        _, r_large = run_match2(lst_large)
        # steps grow with log n (the scan+broadcast trees), not with n
        assert r_large.steps < 2.5 * r_small.steps

    @pytest.mark.parametrize("maker", [reversed_list, sawtooth_list])
    def test_adversarial_layouts(self, maker):
        from repro.pram.algorithms import run_match2

        lst = maker(80)
        tails, _ = run_match2(lst)
        verify_maximal_matching(lst, tails)

    def test_three_partition_rounds(self):
        from repro.pram.algorithms import run_match2

        lst = random_list(120, rng=10)
        tails, _ = run_match2(lst, partition_rounds=3)
        verify_maximal_matching(lst, tails)

    def test_singleton(self):
        from repro.pram.algorithms import run_match2

        tails, _ = run_match2(random_list(1))
        assert tails.size == 0


class TestMatch3Program:
    def match3_plan(self, n):
        from repro.core.functions import max_label_after
        from repro.core.match3 import Match3Plan

        bound = max_label_after(n, 3)
        return Match3Plan(
            n=n, crunch_rounds=3, doubling_rounds=1,
            paper_doubling_rounds=1,
            bits_per_arg=max(1, (bound - 1).bit_length()),
        )

    @pytest.mark.parametrize("n", [2, 3, 5, 33, 100, 257])
    def test_maximal_and_identical(self, n):
        from repro.core.match3 import match3
        from repro.pram.algorithms import run_match3

        lst = random_list(n, rng=n)
        tails, _ = run_match3(lst, mode="EREW")
        verify_maximal_matching(lst, tails)
        m, _, _ = match3(lst, plan=self.match3_plan(n))
        assert np.array_equal(tails, m.tails)

    def test_erew_needs_table_copies(self):
        # The appendix, machine-checked: "To run our algorithms on the
        # EREW model ... we need copies of T to be set up in the
        # preprocessing stage."
        from repro.errors import MemoryConflictError
        from repro.pram.algorithms import run_match3

        lst = random_list(64, rng=1)
        with pytest.raises(MemoryConflictError):
            run_match3(lst, mode="EREW", table_copies=False)

    def test_crew_single_copy_suffices(self):
        from repro.pram.algorithms import run_match3

        lst = random_list(64, rng=2)
        tails, _ = run_match3(lst, mode="CREW", table_copies=False)
        verify_maximal_matching(lst, tails)

    def test_copies_and_single_agree(self):
        from repro.pram.algorithms import run_match3

        lst = random_list(80, rng=3)
        a, _ = run_match3(lst, mode="EREW", table_copies=True)
        c, _ = run_match3(lst, mode="CREW", table_copies=False)
        assert np.array_equal(a, c)

    def test_deeper_doubling(self):
        from repro.pram.algorithms import run_match3

        lst = random_list(120, rng=4)
        tails, _ = run_match3(lst, crunch_rounds=4, doubling_rounds=2)
        verify_maximal_matching(lst, tails)

    def test_steps_flat_in_n(self):
        from repro.pram.algorithms import run_match3

        _, r1 = run_match3(random_list(32, rng=5))
        _, r2 = run_match3(random_list(512, rng=5))
        assert r2.steps == r1.steps  # p = n: time is the additive term
