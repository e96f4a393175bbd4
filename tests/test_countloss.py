"""Count-distribution and count-loss tests against independent oracles:
exhaustive 2^n enumeration, extended-precision references, and central
finite differences."""

import math

import numpy as np
import pytest

from cleanse.countloss import (
    LOG_ZERO,
    CountInterval,
    batch_intervals,
    count_log_pmf,
    count_loss,
    count_loss_value,
    interval_log_prob,
    log1mexp,
    log1mexp_vec,
    logsumexp,
)
from cleanse.data import CandidateSet, generate_synthetic
from cleanse.checks import (
    check_count_loss_grad_at_scale,
    pmf_by_enumeration,
    relative_error,
)


class TestLog1mexp:
    def test_half(self):
        # 1 - 0.5 = 0.5: the function is its own fixed point at ln(1/2)
        assert log1mexp(math.log(0.5)) == pytest.approx(math.log(0.5), abs=1e-15)

    def test_zero_gives_log_zero(self):
        assert log1mexp(0.0) == LOG_ZERO

    def test_positive_rejected(self):
        with pytest.raises(ValueError):
            log1mexp(1e-9)

    def test_extended_precision_references(self):
        # frozen from a 60-digit mpmath evaluation of log(1 - exp(x))
        references = {
            -1e-10: -23.025850929990457,
            -1e-6: -13.815511057964232,
            -0.5: -0.9327521295671886,
            -2.0: -0.14541345786885906,
            -40.0: -4.248354255291589e-18,
        }
        for x, want in references.items():
            assert log1mexp(x) == pytest.approx(want, rel=1e-13)

    def test_mpmath_sweep(self):
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 50
        rng = np.random.default_rng(42)
        xs = -np.exp(rng.uniform(np.log(1e-14), np.log(50.0), size=200))
        for x in xs:
            want = float(mp.log(1 - mp.exp(mp.mpf(x))))
            assert log1mexp(float(x)) == pytest.approx(want, rel=1e-12)

    def test_vectorized_agrees_with_scalar(self):
        xs = np.array([-1e-12, -0.1, -0.7, -5.0, -100.0, 0.0, -np.inf])
        vec = log1mexp_vec(xs)
        for x, v in zip(xs, vec):
            assert v == log1mexp(float(x))


class TestLogsumexp:
    def test_singleton(self):
        assert logsumexp([0.0]) == 0.0

    def test_probabilities_summing_to_one(self):
        assert logsumexp([math.log(0.3), math.log(0.7)]) == pytest.approx(0.0, abs=1e-15)

    def test_deep_underflow_shift(self):
        # both terms underflow in direct space; the max-shift must not
        assert logsumexp([-1000.0, -1000.0]) == pytest.approx(
            -1000.0 + math.log(2.0), abs=1e-12
        )

    def test_all_log_zero(self):
        assert logsumexp([LOG_ZERO, LOG_ZERO]) == LOG_ZERO

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            logsumexp([])

    def test_shift_invariance(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            xs = rng.uniform(-50.0, 0.0, size=int(rng.integers(1, 12)))
            c = float(rng.uniform(-30.0, 30.0))
            assert logsumexp(xs + c) == pytest.approx(logsumexp(xs) + c, abs=1e-12)

    def test_matches_scipy(self):
        from scipy.special import logsumexp as scipy_lse

        rng = np.random.default_rng(11)
        for _ in range(200):
            xs = rng.uniform(-700.0, 0.0, size=int(rng.integers(1, 20)))
            assert logsumexp(xs) == pytest.approx(float(scipy_lse(xs)), abs=1e-12)


class TestCountLogPmf:
    def test_two_fair_coins(self):
        dist = count_log_pmf(np.log([0.5, 0.5]))
        np.testing.assert_allclose(np.exp(dist.log_pmf), [0.25, 0.5, 0.25], atol=1e-15)

    def test_deterministic_outcomes(self):
        with np.errstate(divide="ignore"):
            dist = count_log_pmf(np.log([1.0, 0.0]))
        np.testing.assert_allclose(np.exp(dist.log_pmf), [0.0, 1.0, 0.0], atol=0)

    def test_three_probability_example(self):
        # oracle: the 2^3 enumeration gives [0.12, 0.43, 0.38, 0.07]
        dist = count_log_pmf(np.log([0.2, 0.7, 0.5]))
        np.testing.assert_allclose(
            np.exp(dist.log_pmf), [0.12, 0.43, 0.38, 0.07], atol=1e-15
        )

    def test_matches_enumeration(self):
        rng = np.random.default_rng(3)
        for _ in range(60):
            n = int(rng.integers(1, 13))
            p = rng.random(n)
            dist = count_log_pmf(np.log(p))
            np.testing.assert_allclose(
                np.exp(dist.log_pmf), pmf_by_enumeration(p), atol=1e-10
            )

    def test_positive_log_prob_rejected(self):
        with pytest.raises(ValueError):
            count_log_pmf(np.array([0.1]))

    @pytest.mark.parametrize("n", [64, 512, 4096])
    def test_normalized_with_extreme_inputs(self, n):
        p = np.empty(n)
        p[0::3] = 1e-12
        p[1::3] = 0.5
        p[2::3] = 1.0 - 1e-12
        dist = count_log_pmf(np.log(p))
        assert np.all(np.isfinite(dist.log_pmf))
        assert abs(math.exp(logsumexp(dist.log_pmf)) - 1.0) < 1e-9

    def test_underflow_free_n1024_uniform_half(self):
        # 0.5^1024 ~ 1e-309 underflows in direct space; log space must not
        dist = count_log_pmf(np.full(1024, math.log(0.5)))
        assert np.all(np.isfinite(dist.log_pmf))
        assert dist.log_pmf[0] == pytest.approx(1024 * math.log(0.5), rel=1e-12)


class TestIntervalLogProb:
    def test_full_support_is_certain(self):
        dist = count_log_pmf(np.log([0.3, 0.8, 0.5]))
        assert interval_log_prob(dist, CountInterval(0, 3)) == pytest.approx(0.0, abs=1e-12)

    def test_two_fair_coins_upper(self):
        dist = count_log_pmf(np.log([0.5, 0.5]))
        assert interval_log_prob(dist, CountInterval(1, 2)) == pytest.approx(
            math.log(0.75), abs=1e-12
        )

    def test_three_probability_interval(self):
        dist = count_log_pmf(np.log([0.2, 0.7, 0.5]))
        assert interval_log_prob(dist, CountInterval(1, 2)) == pytest.approx(
            math.log(0.81), abs=1e-12
        )

    def test_invalid_intervals_rejected(self):
        dist = count_log_pmf(np.log([0.5, 0.5]))
        with pytest.raises(ValueError):
            CountInterval(2, 1)
        with pytest.raises(ValueError):
            interval_log_prob(dist, CountInterval(0, 3))

    def test_widening_never_decreases(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            n = int(rng.integers(2, 10))
            dist = count_log_pmf(np.log(rng.random(n)))
            lo = int(rng.integers(1, n))
            hi = int(rng.integers(lo, n))
            base = interval_log_prob(dist, CountInterval(lo, hi))
            assert interval_log_prob(dist, CountInterval(lo - 1, hi)) >= base
            assert interval_log_prob(dist, CountInterval(lo, hi + 1)) >= base


class TestBatchIntervals:
    def test_all_clean_pins_counts(self):
        cands = [CandidateSet.from_labels([lab], 2) for lab in (0, 0, 1)]
        assert batch_intervals(cands, 2) == [CountInterval(2, 2), CountInterval(1, 1)]

    def test_clean_plus_partial(self):
        cands = [CandidateSet.from_labels([0], 2), CandidateSet.from_labels([0, 1], 2)]
        assert batch_intervals(cands, 2) == [CountInterval(1, 2), CountInterval(0, 1)]

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError):
            batch_intervals([], 3)

    def test_matches_naive_recount(self):
        m = 5
        truths = np.random.default_rng(9).integers(0, m, size=64)
        cands = generate_synthetic(truths, m, q=0.4, seed=17)
        got = batch_intervals(cands, m)
        for j in range(m):
            clean_j = sum(1 for cs in cands if cs.cardinality() == 1 and j in cs)
            partial_j = sum(1 for cs in cands if cs.cardinality() > 1 and j in cs)
            assert got[j] == CountInterval(clean_j, clean_j + partial_j)


def _random_instance(rng, max_n=8):
    n = int(rng.integers(2, max_n + 1))
    m = int(rng.integers(2, 5))
    z = rng.standard_normal((n, m))
    probs = np.exp(z) / np.exp(z).sum(axis=1, keepdims=True)
    intervals = []
    for _ in range(m):
        lo = int(rng.integers(0, n))
        intervals.append(CountInterval(lo, int(rng.integers(lo, n + 1))))
    return probs, intervals


class TestCountLoss:
    def test_certain_interval_zero_loss_zero_grad(self):
        probs = np.full((3, 2), 0.5)
        for mode in ("nll", "entropy"):
            res = count_loss(probs, [CountInterval(0, 3)] * 2, mode)
            assert res.loss == pytest.approx(0.0, abs=1e-12)
            np.testing.assert_allclose(res.grad, 0.0, atol=1e-12)
            assert not res.saturated

    def test_nll_two_fair_coins(self):
        probs = np.full((2, 2), 0.5)
        res = count_loss(probs, [CountInterval(1, 2)] * 2, "nll")
        assert res.loss == pytest.approx(2.0 * -math.log(0.75), abs=1e-12)

    def test_entropy_literal_form(self):
        probs = np.full((2, 2), 0.5)
        res = count_loss(probs, [CountInterval(1, 2)] * 2, "entropy")
        q = 0.75
        assert res.loss == pytest.approx(2.0 * (-q * math.log(q)), abs=1e-12)

    def test_nll_loss_nonnegative_zero_iff_certain(self):
        rng = np.random.default_rng(21)
        for _ in range(30):
            probs, intervals = _random_instance(rng)
            res = count_loss(probs, intervals, "nll")
            assert res.loss >= 0.0
        certain = [CountInterval(0, 4)] * 3
        assert count_loss(np.full((4, 3), 1 / 3), certain, "nll").loss == pytest.approx(
            0.0, abs=1e-12
        )

    @pytest.mark.parametrize("mode", ["nll", "entropy"])
    def test_grad_matches_finite_differences(self, mode):
        rng = np.random.default_rng(13)
        h = 1e-6
        for _ in range(20):
            probs, intervals = _random_instance(rng)
            res = count_loss(probs, intervals, mode)
            for i in range(probs.shape[0]):
                for j in range(probs.shape[1]):
                    plus = probs.copy()
                    plus[i, j] += h
                    minus = probs.copy()
                    minus[i, j] -= h
                    fd = (
                        count_loss(plus, intervals, mode).loss
                        - count_loss(minus, intervals, mode).loss
                    ) / (2 * h)
                    assert relative_error(res.grad[i, j], fd) <= 1e-6

    def test_saturation_flag_and_finite_grad(self):
        # both instances predict class 0 with certainty but the interval
        # demands count 0: interval probability is exactly zero
        probs = np.array([[1.0, 0.0], [1.0, 0.0]])
        res = count_loss(probs, [CountInterval(0, 0), CountInterval(2, 2)], "nll")
        assert res.saturated
        assert math.isfinite(res.loss)
        assert np.all(np.isfinite(res.grad))

    def test_unknown_mode_rejected(self):
        for fn in (count_loss, count_loss_value):
            with pytest.raises(ValueError):
                fn(np.full((2, 2), 0.5), [CountInterval(0, 2)] * 2, "kl")

    def test_interval_beyond_batch_rejected(self):
        for fn in (count_loss, count_loss_value):
            with pytest.raises(ValueError):
                fn(np.full((2, 2), 0.5), [CountInterval(0, 3)] * 2, "nll")

    def test_nll_loss_never_negative_with_certain_intervals(self):
        # with [0, n] intervals q is 1 up to roundoff, which once pushed
        # log q above 0 and the loss to -1.8e-15
        rng = np.random.default_rng(0)
        for _ in range(300):
            n = int(rng.integers(2, 80))
            m = int(rng.integers(2, 6))
            z = rng.standard_normal((n, m))
            probs = np.exp(z) / np.exp(z).sum(axis=1, keepdims=True)
            res = count_loss(probs, [CountInterval(0, n)] * m, "nll")
            assert res.loss >= 0.0

    def test_grad_matches_leave_one_out_at_scale(self):
        # n = 1000 spans 16 row blocks, the last one partial
        result = check_count_loss_grad_at_scale(np.random.default_rng(0))
        assert result.passed, result

    @pytest.mark.parametrize("mode", ["nll", "entropy"])
    def test_value_path_matches_count_loss(self, mode):
        rng = np.random.default_rng(17)
        for max_n in (8, 8, 8, 200, 1000):
            probs, intervals = _random_instance(rng, max_n)
            want = count_loss(probs, intervals, mode).loss
            got = count_loss_value(probs, intervals, mode)
            assert abs(got - want) <= 1e-15 * max(1.0, abs(want))
