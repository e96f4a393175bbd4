"""Friedman statistic, Bonferroni-Dunn critical difference, rank tables."""

import math

import numpy as np
import pytest

from cleanse.stats import (
    Q_ALPHA_05,
    RankTable,
    bonferroni_dunn_cd,
    friedman,
    friedman_chi2,
    rank_results,
)

# average ranks of the 8 compared algorithms over 25 cases
EIGHT_ALGO_RANKS = [3.56, 3.00, 3.16, 5.36, 6.24, 6.52, 7.08, 1.12]


class TestFriedman:
    def test_no_disagreement_gives_zero(self):
        for k in (3, 5, 8):
            table = RankTable(k=k, n_cases=10, avg_ranks=np.full(k, (k + 1) / 2))
            chi2, f_f = friedman(table)
            assert chi2 == pytest.approx(0.0, abs=1e-12)
            assert f_f == pytest.approx(0.0, abs=1e-12)

    def test_reference_eight_algorithm_table(self):
        table = RankTable(k=8, n_cases=25, avg_ranks=np.array(EIGHT_ALGO_RANKS))
        chi2, f_f = friedman(table)
        # frozen from direct evaluation of the formulas on these ranks
        assert chi2 == pytest.approx(130.073333, abs=1e-5)
        assert f_f == pytest.approx(69.4856804, abs=1e-6)
        assert abs(f_f - 69.4) <= 0.2  # the rounded reference value

    def test_two_algorithms_direct_formula(self):
        # perfect agreement on k=2 is the degenerate case for F, so the
        # chi-square comes from its own entry point
        table = RankTable(k=2, n_cases=10, avg_ranks=np.array([1.0, 2.0]))
        assert friedman_chi2(table) == pytest.approx(10.0, abs=1e-12)
        with pytest.raises(ValueError, match="degenerate"):
            friedman(table)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(1)
        ranks = np.array(EIGHT_ALGO_RANKS)
        base = friedman(RankTable(8, 25, ranks))
        for _ in range(10):
            perm = rng.permutation(8)
            got = friedman(RankTable(8, 25, ranks[perm]))
            assert got[0] == pytest.approx(base[0], abs=1e-9)
            assert got[1] == pytest.approx(base[1], abs=1e-9)

    def test_chi2_nonnegative(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            k = int(rng.integers(2, 7))
            n = int(rng.integers(2, 30))
            ranks = rank_results(rng.random((n, k))).avg_ranks
            assert friedman_chi2(RankTable(k, n, ranks)) >= -1e-12

    def test_degenerate_denominator_rejected(self):
        # perfect agreement on k=2, N=2: chi2 = N(k-1) exactly
        table = RankTable(k=2, n_cases=2, avg_ranks=np.array([1.0, 2.0]))
        with pytest.raises(ValueError, match="degenerate"):
            friedman(table)

    def test_ranks_from_no_ranking_are_refused(self):
        # each would give a negative chi2; RankTable refuses them on sight
        for ranks in ([1.0, 1.0, 1.0], [1.0, 1.0, 2.0, 2.0], [1.9, 1.9, 1.9]):
            with pytest.raises(ValueError, match="come from no ranking"):
                RankTable(k=len(ranks), n_cases=5, avg_ranks=np.array(ranks))

    def test_rounding_below_zero_reads_as_zero(self):
        # ties averaged with roundoff can miss the k(k+1)^2/4 floor by a hair
        table = RankTable(k=3, n_cases=5, avg_ranks=np.array([2.0 - 1e-12, 2.0, 2.0]))
        assert friedman_chi2(table) == 0.0

    def test_size_requirements(self):
        with pytest.raises(ValueError):
            friedman(RankTable(k=2, n_cases=1, avg_ranks=np.array([1.0, 2.0])))


class TestCriticalDifference:
    def test_reference_value(self):
        assert bonferroni_dunn_cd(2.690, 8, 25) == pytest.approx(1.864, abs=1e-3)
        # unrounded regression value
        assert bonferroni_dunn_cd(2.690, 8, 25) == pytest.approx(1.8636867, abs=1e-6)

    def test_vanishes_with_many_cases(self):
        assert bonferroni_dunn_cd(2.5, 8, 10**12) < 1e-4

    def test_unit_case(self):
        assert bonferroni_dunn_cd(1.0, 2, 1) == pytest.approx(1.0, abs=1e-12)

    def test_q_alpha_validated(self):
        with pytest.raises(ValueError):
            bonferroni_dunn_cd(0.0, 8, 25)

    @pytest.mark.parametrize(
        "q_alpha, k, n_cases, message",
        [(2.241, 3, 0, "N >= 1"),
         (2.241, 3, -5, "N >= 1"),
         (2.241, 1, 25, "k >= 2"),
         (math.nan, 3, 25, "q_alpha must be finite and > 0"),
         (math.inf, 3, 25, "q_alpha must be finite and > 0"),
         (-1.0, 3, 25, "q_alpha must be finite and > 0")],
    )
    def test_bad_inputs_refused(self, q_alpha, k, n_cases, message):
        with pytest.raises(ValueError, match=message):
            bonferroni_dunn_cd(q_alpha, k, n_cases)

    def test_q_table_contains_reference_entry(self):
        assert Q_ALPHA_05[8] == 2.690


class TestRankResults:
    def test_single_case_strict_order(self):
        table = rank_results(np.array([[0.9, 0.8]]))
        np.testing.assert_array_equal(table.avg_ranks, [1.0, 2.0])

    def test_single_case_tie_averaged(self):
        table = rank_results(np.array([[0.9, 0.9]]))
        np.testing.assert_array_equal(table.avg_ranks, [1.5, 1.5])

    def test_strict_order_is_permutation(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            k = int(rng.integers(2, 7))
            accs = rng.permutation(k)[None, :].astype(float)
            table = rank_results(accs)
            assert sorted(table.avg_ranks.tolist()) == list(range(1, k + 1))

    def test_averaging_over_cases(self):
        accs = np.array([[0.9, 0.8], [0.8, 0.9]])
        table = rank_results(accs)
        np.testing.assert_array_equal(table.avg_ranks, [1.5, 1.5])

    def test_fixed_rank_override(self):
        # two columns lack results and sit at a settled rank of 3.5 ( (3+4)/2 )
        # out of 4; the other two are ranked among themselves
        accs = np.array([[0.9, 0.8, 0.0, 0.0], [0.7, 0.8, 0.0, 0.0]])
        table = rank_results(accs, fixed_ranks={2: 3.5, 3: 3.5})
        np.testing.assert_array_equal(table.avg_ranks, [1.5, 1.5, 3.5, 3.5])

    def test_override_validated(self):
        accs = np.array([[0.9, 0.8]])
        with pytest.raises(ValueError):
            rank_results(accs, fixed_ranks={5: 1.0})
        with pytest.raises(ValueError):
            rank_results(accs, fixed_ranks={0: 3.0})

    def test_missing_entries_rejected(self):
        with pytest.raises(ValueError):
            rank_results(np.array([[0.9, np.nan]]))

    def test_matches_scipy_rankdata_bitwise(self):
        from scipy.stats import rankdata

        # few distinct levels, so most rows hold ties; -0.0 and 0.0 tie
        levels = np.array([-np.inf, -0.0, 0.0, 0.25, 0.5, 1.0, np.inf])
        rng = np.random.default_rng(12)
        for _ in range(1500):
            n, k = int(rng.integers(1, 7)), int(rng.integers(2, 9))
            accs = rng.choice(levels, size=(n, k))
            accs[rng.random(n) < 0.2] = rng.choice(levels)  # rows where every entry ties
            # pinned columns settle at the mean of the last positions, as in
            # test_fixed_rank_override; the free ones rank among themselves
            pinned = rng.choice(k, size=int(rng.integers(0, k)), replace=False)
            free = np.setdiff1d(np.arange(k), pinned)
            settled = (2 * k - len(pinned) + 1) / 2
            want = np.full((n, k), settled)
            want[:, free] = rankdata(-accs[:, free], method="average", axis=1)
            table = rank_results(accs, {int(c): settled for c in pinned} or None)
            assert table.avg_ranks.tobytes() == want.mean(axis=0).tobytes()

    def test_sum_identity_for_complete_rankings(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            n, k = int(rng.integers(1, 6)), int(rng.integers(2, 7))
            accs = rng.random((n, k))
            table = rank_results(accs)
            assert float(np.sum(table.avg_ranks)) == pytest.approx(
                k * (k + 1) / 2, abs=1e-9
            )


class TestRankTable:
    def test_bounds_validated(self):
        with pytest.raises(ValueError):
            RankTable(k=3, n_cases=5, avg_ranks=np.array([0.5, 2.0, 3.0]))
        with pytest.raises(ValueError):
            RankTable(k=3, n_cases=5, avg_ranks=np.array([1.0, 2.0, 3.5]))
        with pytest.raises(ValueError):
            RankTable(k=3, n_cases=5, avg_ranks=np.array([1.0, 2.0]))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_ranks_refused(self, bad):
        with pytest.raises(ValueError, match="must be finite"):
            RankTable(k=3, n_cases=5, avg_ranks=np.array([1.5, bad, 3.0]))

    def test_every_ranking_is_accepted(self):
        RankTable(k=8, n_cases=25, avg_ranks=np.array(EIGHT_ALGO_RANKS))  # sums to 36.04
        rng = np.random.default_rng(5)
        for _ in range(50):
            n, k = int(rng.integers(1, 30)), int(rng.integers(2, 9))
            # coarse accuracies, so ties are common
            accs = rng.integers(0, 4, size=(n, k)).astype(float)
            four = rng.integers(0, 4, size=(n, 4)).astype(float)
            # the last two of four settled at (3 + 4) / 2
            for table in (rank_results(accs), rank_results(four, fixed_ranks={2: 3.5, 3: 3.5})):
                RankTable(k=table.k, n_cases=n, avg_ranks=table.avg_ranks)

    @pytest.mark.parametrize(
        "ranks",
        [[1.9, 2.0, 2.3],  # in range, chi2 > 0, but sums to 6.2, not 6
         [4.0, 4.0, 1.0, 2.0]],  # sums to 11, not 10: two algorithms at rank 4
    )
    def test_ranks_no_ranking_gives_are_refused(self, ranks):
        with pytest.raises(ValueError, match="come from no ranking"):
            RankTable(k=len(ranks), n_cases=50, avg_ranks=np.array(ranks))

    def test_two_decimal_rounding_is_allowed(self):
        # 1/3, 2/3-style averages printed to two decimals stay acceptable;
        # a third decimal's worth more is not
        RankTable(k=3, n_cases=3, avg_ranks=np.array([1.67, 1.67, 2.67]))
        with pytest.raises(ValueError, match="come from no ranking"):
            RankTable(k=3, n_cases=3, avg_ranks=np.array([1.67, 1.67, 2.68]))
