"""Count-distribution and count-loss tests against independent oracles:
exhaustive 2^n enumeration, extended-precision references, and central
finite differences."""

import math

import numpy as np
import pytest

import cleanse.countloss as countloss_module
from cleanse.countloss import (
    LOG_ZERO,
    MIN_PROB_SPACE_LOG,
    batch_intervals,
    count_log_pmf,
    count_loss,
    count_loss_values,
    interval_log_prob,
    log1mexp,
    logsumexp,
)
import cleanse.checks as checks_module
from cleanse.data import generate_synthetic
from cleanse.checks import (
    check_count_loss_grad_at_scale,
    check_count_loss_log_fallback,
    pmf_by_enumeration,
    relative_error,
)


def count_loss_value(probs, lo, hi, mode="nll"):
    return count_loss_values([(probs, lo, hi)], mode)[0]


def on_log_path(fn, *args):
    """``fn(*args)`` with every batch falling back to the log-space DP: no
    interval log-probability reaches a floor of +inf."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(countloss_module, "MIN_PROB_SPACE_LOG", math.inf)
        return fn(*args)


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
        vec = log1mexp(xs)
        assert vec.shape == xs.shape
        for x, v in zip(xs, vec):
            assert v == log1mexp(float(x))

    def test_scalar_in_scalar_out(self):
        assert np.ndim(log1mexp(-0.5)) == 0
        assert log1mexp(np.float64(-0.5)) == log1mexp(np.array([-0.5]))[0]

    def test_any_positive_entry_rejected(self):
        with pytest.raises(ValueError, match="must be <= 0"):
            log1mexp(np.array([[-1.0, -2.0], [-3.0, 1e-300]]))


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

    def test_reduces_the_last_axis_row_by_row(self):
        rng = np.random.default_rng(12)
        rows = rng.uniform(-700.0, 0.0, size=(6, 9))
        rows[2] = LOG_ZERO
        rows[4, ::2] = LOG_ZERO
        got = logsumexp(rows)
        assert got.shape == (6,)
        assert got[2] == LOG_ZERO
        for row, value in zip(rows, got):
            assert value == logsumexp(row)
        assert np.ndim(logsumexp(rows[0])) == 0

    def test_log_zero_entries_leave_the_bits_unchanged(self):
        # a fold of logaddexp ignores -inf bit for bit, wherever it sits; the
        # lengths cross numpy's 8-wide and 128-block pairwise summation
        rng = np.random.default_rng(41)
        for length in range(1, 301):
            xs = rng.uniform(-40.0, -1e-3, size=length)
            want = logsumexp(xs).tobytes()
            for _ in range(3):
                extra = int(rng.integers(1, 2 * length + 2))
                at = np.sort(rng.integers(0, length + 1, size=extra))
                padded = np.insert(xs, at, LOG_ZERO)
                assert logsumexp(padded).tobytes() == want, (length, extra)
                assert logsumexp(np.stack([padded, padded]))[1].tobytes() == want


class TestTrainingRunsTheTestedPrimitives:
    """count_loss and count_loss_values call the log1mexp, logsumexp and
    interval_log_prob the tests above and ``cleanse check`` test, not private
    copies of them.  log1mexp makes the log-space DP's inputs, so its calls
    are counted where batches fall back to it."""

    @pytest.mark.parametrize("name", ["log1mexp", "logsumexp", "interval_log_prob"])
    def test_both_paths_call_the_module_function(self, monkeypatch, name):
        run = on_log_path if name == "log1mexp" else (lambda fn, *args: fn(*args))
        calls = []
        original = getattr(countloss_module, name)

        def counting(*args):
            calls.append(np.shape(args[0]))
            return original(*args)

        monkeypatch.setattr(countloss_module, name, counting)
        probs = np.array([[0.2, 0.8], [0.6, 0.4], [0.5, 0.5]])
        lo, hi = np.array([0, 1]), np.array([2, 3])
        run(count_loss, probs, lo, hi)
        assert len(calls) == 1
        # batches of one size share one DP, in either number system
        run(count_loss_values, [(probs, lo, hi), (probs, lo, hi)])
        assert len(calls) == 2

    def test_the_oracle_path_has_the_training_bits(self):
        # interval-prob-vs-enumeration sums count_log_pmf's array with this very
        # function; the count losses sum their DP rows, cut at max(hi), and the
        # sum ignores the -inf masked counts (zeros of a probability-space row
        # included), so each path gets the bits of its full row: the log path
        # those of count_log_pmf, the probability path those of the same
        # recurrence run on p and 1 - p
        assert checks_module.interval_log_prob is countloss_module.interval_log_prob
        rng = np.random.default_rng(31)
        for _ in range(40):
            n = int(rng.integers(50, 200))
            probs = rng.random((n, 1))
            mean, sd = probs.sum(), math.sqrt(np.sum(probs * (1.0 - probs)))
            lo, hi = np.array([int(mean - sd)]), np.array([int(mean + 2.0 * sd)])
            log_q = interval_log_prob(count_log_pmf(np.log(probs[:, 0])), lo[0], hi[0])
            want = -min(log_q, 0.0)
            assert on_log_path(count_loss, probs, lo, hi).loss == want
            assert on_log_path(count_loss_value, probs, lo, hi) == want
            p = probs[:, :, None]
            row = countloss_module._forward(p, 1.0 - p, n, log_space=False)
            want = -min(interval_log_prob(np.log(row[0, 1:]), lo[0], hi[0]), 0.0)
            assert count_loss(probs, lo, hi).loss == want
            assert count_loss_value(probs, lo, hi) == want


class TestCountLogPmf:
    def test_two_fair_coins(self):
        log_pmf = count_log_pmf(np.log([0.5, 0.5]))
        np.testing.assert_allclose(np.exp(log_pmf), [0.25, 0.5, 0.25], atol=1e-15)

    def test_deterministic_outcomes(self):
        with np.errstate(divide="ignore"):
            log_pmf = count_log_pmf(np.log([1.0, 0.0]))
        np.testing.assert_allclose(np.exp(log_pmf), [0.0, 1.0, 0.0], atol=0)

    def test_three_probability_example(self):
        # oracle: the 2^3 enumeration gives [0.12, 0.43, 0.38, 0.07]
        log_pmf = count_log_pmf(np.log([0.2, 0.7, 0.5]))
        np.testing.assert_allclose(
            np.exp(log_pmf), [0.12, 0.43, 0.38, 0.07], atol=1e-15
        )

    def test_matches_enumeration(self):
        rng = np.random.default_rng(3)
        for _ in range(60):
            n = int(rng.integers(1, 13))
            p = rng.random(n)
            log_pmf = count_log_pmf(np.log(p))
            np.testing.assert_allclose(
                np.exp(log_pmf), pmf_by_enumeration(p), atol=1e-10
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
        log_pmf = count_log_pmf(np.log(p))
        assert np.all(np.isfinite(log_pmf))
        assert abs(math.exp(logsumexp(log_pmf)) - 1.0) < 1e-9

    def test_underflow_free_n1024_uniform_half(self):
        # 0.5^1024 ~ 1e-309 underflows in direct space; log space must not
        log_pmf = count_log_pmf(np.full(1024, math.log(0.5)))
        assert np.all(np.isfinite(log_pmf))
        assert log_pmf[0] == pytest.approx(1024 * math.log(0.5), rel=1e-12)


class TestIntervalLogProb:
    def test_full_support_is_certain(self):
        log_pmf = count_log_pmf(np.log([0.3, 0.8, 0.5]))
        assert interval_log_prob(log_pmf, 0, 3) == pytest.approx(0.0, abs=1e-12)

    def test_two_fair_coins_upper(self):
        log_pmf = count_log_pmf(np.log([0.5, 0.5]))
        assert interval_log_prob(log_pmf, 1, 2) == pytest.approx(
            math.log(0.75), abs=1e-12
        )

    def test_three_probability_interval(self):
        log_pmf = count_log_pmf(np.log([0.2, 0.7, 0.5]))
        assert interval_log_prob(log_pmf, 1, 2) == pytest.approx(
            math.log(0.81), abs=1e-12
        )

    def test_invalid_intervals_rejected(self):
        log_pmf = count_log_pmf(np.log([0.5, 0.5]))
        for lo, hi in [(2, 1), (0, len(log_pmf)), (-1, 1)]:
            with pytest.raises(ValueError, match="outside"):
                interval_log_prob(log_pmf, lo, hi)
        # per-row bounds name the first bad class
        rows = np.stack([log_pmf] * 3)
        for lo, hi, bad in [([0, -1, -1], [2, 2, 2], 1),
                            ([0, 0, 2], [2, 2, 1], 2),
                            ([0, 0, 0], [3, 2, 3], 0)]:
            with pytest.raises(ValueError, match=f"of class {bad} is outside 0 <= lo <= hi <= 2"):
                interval_log_prob(rows, np.array(lo), np.array(hi))

    def test_a_row_cut_at_any_top_above_hi_has_the_full_row_bits(self):
        rng = np.random.default_rng(43)
        for _ in range(60):
            n = int(rng.integers(1, 300))
            log_pmf = count_log_pmf(np.log(rng.random(n)))
            lo = int(rng.integers(0, n + 1))
            hi = int(rng.integers(lo, n + 1))
            want = interval_log_prob(log_pmf, lo, hi).tobytes()
            for top in range(hi, n + 1):
                assert interval_log_prob(log_pmf[: top + 1], lo, hi).tobytes() == want, (n, top)

    def test_widening_never_decreases(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            n = int(rng.integers(2, 10))
            log_pmf = count_log_pmf(np.log(rng.random(n)))
            lo = int(rng.integers(1, n))
            hi = int(rng.integers(lo, n))
            base = interval_log_prob(log_pmf, lo, hi)
            assert interval_log_prob(log_pmf, lo - 1, hi) >= base
            assert interval_log_prob(log_pmf, lo, hi + 1) >= base


class TestBatchIntervals:
    def test_all_clean_pins_counts(self):
        cands = np.array([[True, False], [True, False], [False, True]])
        lo, hi = batch_intervals(cands)
        assert lo.dtype == hi.dtype == np.int64
        assert lo.tolist() == [2, 1] and hi.tolist() == [2, 1]

    def test_clean_plus_partial(self):
        cands = np.array([[True, False], [True, True]])
        lo, hi = batch_intervals(cands)
        assert lo.tolist() == [1, 0] and hi.tolist() == [2, 1]

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError):
            batch_intervals(np.zeros((0, 3), dtype=bool))

    def test_matches_naive_recount(self):
        m = 5
        truths = np.random.default_rng(9).integers(0, m, size=64)
        cands = generate_synthetic(truths, m, q=0.4, seed=17)
        lo, hi = batch_intervals(cands)
        assert lo.shape == hi.shape == (m,)
        for j in range(m):
            clean_j = sum(1 for row in cands if row.sum() == 1 and row[j])
            partial_j = sum(1 for row in cands if row.sum() > 1 and row[j])
            assert (lo[j], hi[j]) == (clean_j, clean_j + partial_j)


def _random_instance(rng, max_n=8):
    n = int(rng.integers(2, max_n + 1))
    m = int(rng.integers(2, 5))
    z = rng.standard_normal((n, m))
    probs = np.exp(z) / np.exp(z).sum(axis=1, keepdims=True)
    lo, hi = np.empty(m, dtype=np.int64), np.empty(m, dtype=np.int64)
    for j in range(m):
        lo[j] = rng.integers(0, n)
        hi[j] = rng.integers(lo[j], n + 1)
    return probs, lo, hi


class TestCountLoss:
    def test_certain_interval_zero_loss_zero_grad(self):
        probs = np.full((3, 2), 0.5)
        for mode in ("nll", "entropy"):
            res = count_loss(probs, np.full(2, 0), np.full(2, 3), mode)
            assert res.loss == pytest.approx(0.0, abs=1e-12)
            np.testing.assert_allclose(res.grad, 0.0, atol=1e-12)
            assert not res.saturated

    def test_nll_two_fair_coins(self):
        probs = np.full((2, 2), 0.5)
        res = count_loss(probs, np.full(2, 1), np.full(2, 2), "nll")
        assert res.loss == pytest.approx(2.0 * -math.log(0.75), abs=1e-12)

    def test_entropy_literal_form(self):
        probs = np.full((2, 2), 0.5)
        res = count_loss(probs, np.full(2, 1), np.full(2, 2), "entropy")
        q = 0.75
        assert res.loss == pytest.approx(2.0 * (-q * math.log(q)), abs=1e-12)

    def test_nll_loss_nonnegative_zero_iff_certain(self):
        rng = np.random.default_rng(21)
        for _ in range(30):
            probs, lo, hi = _random_instance(rng)
            res = count_loss(probs, lo, hi, "nll")
            assert res.loss >= 0.0
        certain = np.full(3, 0), np.full(3, 4)
        assert count_loss(np.full((4, 3), 1 / 3), *certain, "nll").loss == pytest.approx(
            0.0, abs=1e-12
        )

    @pytest.mark.parametrize("mode", ["nll", "entropy"])
    def test_grad_matches_finite_differences(self, mode):
        rng = np.random.default_rng(13)
        h = 1e-6
        for _ in range(20):
            probs, lo, hi = _random_instance(rng)
            res = count_loss(probs, lo, hi, mode)
            for i in range(probs.shape[0]):
                for j in range(probs.shape[1]):
                    plus = probs.copy()
                    plus[i, j] += h
                    minus = probs.copy()
                    minus[i, j] -= h
                    fd = (
                        count_loss(plus, lo, hi, mode).loss
                        - count_loss(minus, lo, hi, mode).loss
                    ) / (2 * h)
                    assert relative_error(res.grad[i, j], fd) <= 1e-6

    def test_saturation_flag_and_finite_grad(self):
        # both instances predict class 0 with certainty but the interval
        # demands count 0: interval probability is exactly zero
        probs = np.array([[1.0, 0.0], [1.0, 0.0]])
        res = count_loss(probs, np.array([0, 2]), np.array([0, 2]), "nll")
        assert res.saturated
        assert math.isfinite(res.loss)
        assert np.all(np.isfinite(res.grad))

    def test_unknown_mode_rejected(self):
        for fn in (count_loss, count_loss_value):
            with pytest.raises(ValueError):
                fn(np.full((2, 2), 0.5), np.full(2, 0), np.full(2, 2), "kl")

    def test_interval_beyond_batch_rejected(self):
        for fn in (count_loss, count_loss_value):
            with pytest.raises(ValueError):
                fn(np.full((2, 2), 0.5), np.full(2, 0), np.full(2, 3), "nll")

    @pytest.mark.parametrize("fn", [count_loss, count_loss_value])
    @pytest.mark.parametrize(
        "lo, hi, bad",
        [
            ([0, -1, -1], [3, 3, 3], 1),  # lo < 0; the first bad class is named
            ([0, 0, 2], [3, 3, 1], 2),  # lo > hi
            ([0, 0, 0], [4, 3, 3], 0),  # hi > n
        ],
    )
    def test_malformed_bounds_name_the_class(self, fn, lo, hi, bad):
        with pytest.raises(ValueError, match=f"of class {bad} is outside"):
            fn(np.full((3, 3), 1 / 3), np.array(lo), np.array(hi), "nll")

    @pytest.mark.parametrize("fn", [count_loss, count_loss_value])
    def test_bounds_of_wrong_shape_or_type_rejected(self, fn):
        probs = np.full((2, 2), 0.5)
        for lo, hi in [
            (np.full(3, 0), np.full(3, 2)),  # one bound per class, not per row
            (np.full((2, 1), 0), np.full((2, 1), 2)),
            (np.full(2, 0), np.full(1, 2)),
            (np.full(2, 0.0), np.full(2, 2.0)),
        ]:
            with pytest.raises(ValueError, match=r"integer arrays of shape \(2,\)"):
                fn(probs, lo, hi, "nll")
        # the old call shape, a list of (lo, hi) pairs, must not be misread at m = 2
        with pytest.raises(ValueError, match=r"shape \(2,\)"):
            fn(probs, [(0, 2), (1, 2)], "nll")

    def test_nll_loss_never_negative_with_certain_intervals(self):
        # with [0, n] intervals q is 1 up to roundoff, which once pushed
        # log q above 0 and the loss to -1.8e-15
        rng = np.random.default_rng(0)
        for _ in range(300):
            n = int(rng.integers(2, 80))
            m = int(rng.integers(2, 6))
            z = rng.standard_normal((n, m))
            probs = np.exp(z) / np.exp(z).sum(axis=1, keepdims=True)
            res = count_loss(probs, np.full(m, 0), np.full(m, n), "nll")
            assert res.loss >= 0.0

    def test_grad_matches_leave_one_out_at_scale(self):
        # n = 1000, with intervals that touch lo = 0 and hi = n
        result = check_count_loss_grad_at_scale(np.random.default_rng(0))
        assert result.passed, result

    @pytest.mark.parametrize("mode", ["nll", "entropy"])
    def test_grad_of_a_wide_interval_against_mpmath(self, mode):
        # 1 - q is 7e-6 and 1e-6: dq/dp_i is a difference of two point masses
        # near 1e-7, which a difference of two interval sums near 1 gets only
        # to 4e-10 relative here
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 60
        rng = np.random.default_rng(3)
        n = 40
        p1 = rng.uniform(0.35, 0.65, size=n)
        probs = np.stack([p1, 1.0 - p1], axis=1)
        lo, hi = np.array([7, 6]), np.array([33, 34])
        got = count_loss(probs, lo, hi, mode).grad

        def pmfs(ps):
            """Exact pmfs of the first 0..len(ps) items."""
            rows = [[mp.mpf(1)]]
            for p in ps:
                prev = rows[-1] + [mp.mpf(0)]
                rows.append([prev[k] * (1 - p) + (prev[k - 1] * p if k else 0)
                             for k in range(len(prev))])
            return rows

        for j in range(2):
            ps = [mp.mpf(float(x)) for x in probs[:, j]]
            pre, suf = pmfs(ps), pmfs(ps[::-1])
            q = mp.fsum(pre[n][lo[j] : hi[j] + 1])
            assert 1e-7 < 1 - q < 1e-5
            dloss_dq = -1 / q if mode == "nll" else -(mp.log(q) + 1)
            for i in range(n):
                before, after = pre[i], suf[n - 1 - i]

                def mass(c):  # P(S_{-i} = c)
                    return mp.fsum(before[k] * after[c - k] for k in range(len(before))
                                   if 0 <= c - k < len(after))

                want = dloss_dq * (mass(lo[j] - 1) - mass(hi[j]))
                assert abs(got[i, j] - want) <= 1e-11 * abs(want), (i, j)

    @pytest.mark.parametrize("mode", ["nll", "entropy"])
    def test_value_path_matches_count_loss(self, mode):
        rng = np.random.default_rng(17)
        for max_n in (8, 8, 8, 200, 1000):
            probs, lo, hi = _random_instance(rng, max_n)
            want = count_loss(probs, lo, hi, mode).loss
            got = count_loss_value(probs, lo, hi, mode)
            assert abs(got - want) <= 1e-15 * max(1.0, abs(want))

    def test_terms_are_summed_left_to_right(self):
        # 1 + 1e-16 rounds back to 1 each time; a compensated sum (Python's
        # sum() of floats from 3.12 on) would return 1.0000000000000002
        total, _, _ = countloss_module._loss_terms(np.array([-1.0, -1e-16, -1e-16]), "nll")
        assert total == 1.0


def _epoch_of_batches(rng, n_rows, m):
    """(probs, lo, hi) per batch of a shuffled epoch: 64-row batches, the
    remainder merged into the last one (a 96-row tail when 32 are left)."""
    cands = generate_synthetic(rng.integers(0, m, size=n_rows), m, 0.3, seed=int(rng.integers(1 << 30)))
    z = 3.0 * rng.standard_normal((n_rows, m))
    probs = np.exp(z) / np.exp(z).sum(axis=1, keepdims=True)
    full = max(1, n_rows // 64)
    bounds = [b * 64 for b in range(full)] + [n_rows]
    return [
        (probs[a:b], *batch_intervals(cands[a:b])) for a, b in zip(bounds, bounds[1:])
    ]


def _full_row_value(probs, lo, hi, mode, log_space):
    """The value-only DP with every count row kept (no stop at max(hi)), in
    log space or in probability space."""
    p, lo, hi = countloss_module._batch_inputs(probs, lo, hi, mode)
    if log_space:
        log_p, log_q = countloss_module._log_inputs(p)
        row = countloss_module._forward(log_p, log_q, len(p))
    else:
        with np.errstate(divide="ignore"):
            row = np.log(countloss_module._forward(p, 1.0 - p, len(p), log_space=False))
    return countloss_module._loss_terms(interval_log_prob(row[:, 1:], lo, hi), mode)[0]


class TestCountLossValues:
    @pytest.mark.parametrize("mode", ["nll", "entropy"])
    def test_stacked_values_equal_per_batch_values_bitwise(self, mode):
        rng = np.random.default_rng(23)
        for n_rows in (2, 5, 63, 64, 65, 160, 200):
            for m in (2, 3, 7, 10):
                batches = _epoch_of_batches(rng, n_rows, m)
                for log_space in (False, True):
                    run = on_log_path if log_space else (lambda fn, *args: fn(*args))
                    got = run(count_loss_values, batches, mode)
                    one_by_one = [run(count_loss_value, p, lo, hi, mode) for p, lo, hi in batches]
                    # each batch's full row in the number system its DP ran in
                    full_rows = [_full_row_value(p, lo, hi, mode, run(count_loss, p, lo, hi).log_space)
                                 for p, lo, hi in batches]
                    assert np.array(got).tobytes() == np.array(one_by_one).tobytes()
                    assert np.array(got).tobytes() == np.array(full_rows).tobytes()

    def test_mixed_sizes_come_back_in_batch_order(self):
        # batches of 64 and one merged 96-row tail interleaved with small ones
        rng = np.random.default_rng(29)
        batches = _epoch_of_batches(rng, 352, 10)  # 4 x 64 + 96
        batches += _epoch_of_batches(rng, 7, 3) + _epoch_of_batches(rng, 64, 4)
        order = rng.permutation(len(batches))
        shuffled = [batches[b] for b in order]
        got = count_loss_values(shuffled, "nll")
        for value, b in zip(got, order):
            assert value == count_loss_value(*batches[b], "nll")

    def test_empty_list_and_bad_batch(self):
        assert count_loss_values([], "nll") == []
        probs = np.full((3, 2), 0.5)
        with pytest.raises(ValueError, match="of class 1 is outside"):
            count_loss_values([(probs, [0, 0], [3, 3]), (probs, [0, 2], [3, 1])], "nll")

    @pytest.mark.parametrize("n", [1, 2, 64])
    def test_batch_whose_intervals_stop_at_zero_keeps_its_bits_when_stacked(self, n):
        # a DP stopped at count 0 steps over one count, where a stacked one
        # steps over many; both must give the same bits
        rng = np.random.default_rng(n + 70)
        zero_top = (rng.uniform(0.0, 0.05, size=(n, 3)), np.zeros(3, dtype=np.int64),
                    np.zeros(3, dtype=np.int64))
        wide = (rng.dirichlet(np.ones(3), size=n), np.zeros(3, dtype=np.int64),
                np.full(3, n, dtype=np.int64))
        for mode in ("nll", "entropy"):
            alone = count_loss(*zero_top, mode)
            assert not alone.log_space
            stacked = count_loss_values([wide, zero_top], mode)
            assert stacked[1] == alone.loss == count_loss_value(*zero_top, mode)
            assert stacked[0] == count_loss_value(*wide, mode)
            with pytest.MonkeyPatch.context() as patch:
                forward = countloss_module._forward
                patch.setattr(countloss_module, "_forward",
                              lambda p, q, top, lattice=False, log_space=True:
                                  forward(p, q, len(p), lattice, log_space))
                full = count_loss(*zero_top, mode)
            assert full.loss == alone.loss
            assert full.grad.tobytes() == alone.grad.tobytes()

    @pytest.mark.parametrize("n", [64, 1000])
    @pytest.mark.parametrize("mode", ["nll", "entropy"])
    def test_top_stop_keeps_count_loss_bits(self, monkeypatch, n, mode):
        # both number systems: the probability-space DP this batch takes, and
        # the log-space one it falls back to under a floor of +inf
        rng = np.random.default_rng(n)
        m = 4
        cands = generate_synthetic(rng.integers(0, m, size=n), m, 0.2, seed=n + 1)
        z = 2.0 * rng.standard_normal((n, m))
        probs = np.exp(z) / np.exp(z).sum(axis=1, keepdims=True)
        lo, hi = batch_intervals(cands)
        assert hi.max() < n  # the stop drops counts
        forward = countloss_module._forward
        for log_space in (False, True):
            with monkeypatch.context() as patch:
                if log_space:
                    patch.setattr(countloss_module, "MIN_PROB_SPACE_LOG", math.inf)
                got = count_loss(probs, lo, hi, mode)
                got_value = count_loss_value(probs, lo, hi, mode)
                assert got.log_space == log_space
                patch.setattr(
                    countloss_module, "_forward",
                    lambda p, q, top, lattice=False, log_space=True:
                        forward(p, q, len(p), lattice, log_space),
                )
                want = count_loss(probs, lo, hi, mode)
                assert want.log_space == log_space
                assert got.loss == want.loss
                assert got.grad.tobytes() == want.grad.tobytes()
                assert got.saturated == want.saturated
                assert got_value == count_loss_value(probs, lo, hi, mode)


def _log_space_rows(monkeypatch):
    """A list that gets the class-row count of every log-space ``_forward`` call."""
    rows = []
    forward = countloss_module._forward

    def counting(p, q, top, lattice=False, log_space=True):
        if log_space:
            rows.append(p.shape[1])
        return forward(p, q, top, lattice, log_space)

    monkeypatch.setattr(countloss_module, "_forward", counting)
    return rows


def _far_tail_batch(rng, n=1024, m=2):
    """p near 0.45 and intervals [0, 0]: q_j = prod_i (1 - p_ij) is about
    e^-612, below the probability-space floor and above the nll clamp."""
    return rng.uniform(0.44, 0.46, size=(n, m)), np.zeros(m, dtype=np.int64), np.zeros(m, dtype=np.int64)


def _ordinary_batch(rng, n, m):
    """Softmax predictions with each interval at the mean count +- 2 sd."""
    z = rng.standard_normal((n, m))
    probs = np.exp(z) / np.exp(z).sum(axis=1, keepdims=True)
    mean, sd = probs.sum(axis=0), np.sqrt(np.sum(probs * (1.0 - probs), axis=0))
    return probs, (mean - 2.0 * sd).astype(np.int64), (mean + 2.0 * sd).astype(np.int64)


class TestLogSpaceFallback:
    def test_far_tail_batch_runs_in_log_space_and_matches_its_closed_form(self, monkeypatch):
        probs, lo, hi = _far_tail_batch(np.random.default_rng(53))
        log_q = np.log1p(-probs).sum(axis=0)
        assert np.all((log_q < MIN_PROB_SPACE_LOG) & (log_q > countloss_module.MIN_LOG_PROB))
        rows = _log_space_rows(monkeypatch)
        res = count_loss(probs, lo, hi, "nll")
        assert rows == [2 * probs.shape[1]]  # the stacked forward/reversed lattice
        assert res.log_space and not res.saturated
        assert res.loss == pytest.approx(-float(log_q.sum()), rel=1e-13)
        np.testing.assert_allclose(res.grad, 1.0 / (1.0 - probs), rtol=1e-11)

    @pytest.mark.parametrize("mode", ["nll", "entropy"])
    def test_stacked_fallback_batch_keeps_its_lone_bits(self, monkeypatch, mode):
        rng = np.random.default_rng(59)
        tail = _far_tail_batch(rng)
        batches = [_ordinary_batch(rng, 1024, 2), tail, _ordinary_batch(rng, 1024, 2),
                   _ordinary_batch(rng, 64, 2)]
        alone = [count_loss_value(*batch, mode) for batch in batches]
        rows = _log_space_rows(monkeypatch)
        got = count_loss_values(batches, mode)
        # one log-space DP, over the tail batch's two class rows only
        assert rows == [2]
        assert np.array(got).tobytes() == np.array(alone).tobytes()
        assert got[1] == count_loss(*tail, mode).loss

    def test_ordinary_batches_stay_in_probability_space(self, monkeypatch):
        rng = np.random.default_rng(61)
        batches = [_ordinary_batch(rng, n, 3) for n in (64, 64, 96)]
        rows = _log_space_rows(monkeypatch)
        for batch in batches:
            assert not count_loss(*batch).log_space
        count_loss_values(batches)
        assert rows == []

    def test_saturated_batch_runs_in_log_space(self):
        probs = np.array([[1.0, 0.0], [1.0, 0.0]])
        res = count_loss(probs, np.array([0, 2]), np.array([0, 2]), "nll")
        assert res.saturated and res.log_space

    def test_input_that_is_not_a_probability_runs_in_log_space(self):
        lo, hi = np.array([0, 0]), np.array([1, 2])
        for bad in (math.nan, -0.5):
            probs = np.array([[0.5, bad], [0.3, 0.7]])
            with np.errstate(invalid="ignore"):
                res = count_loss(probs, lo, hi, "nll")
                value = count_loss_value(probs, lo, hi, "nll")
            assert res.log_space and math.isnan(res.loss) and math.isnan(value)
        for fn in (count_loss, count_loss_value):
            with pytest.raises(ValueError, match="must be <= 0"):
                fn(np.array([[1.5, 0.5]]), np.array([1, 0]), np.array([1, 1]), "nll")

    def test_the_fallback_check_passes(self):
        result = check_count_loss_log_fallback(np.random.default_rng(0))
        assert result.passed, result


class TestProbabilitySpaceMatchesLogSpace:
    """The probability-space DP against the log-space one it replaces, on
    batches whose intervals come from candidate sets drawn around the
    predictions: random n and m, logit scales up to 30 (p down to about
    1e-70), and the merged-tail batch sizes of a 64-row epoch."""

    @pytest.mark.parametrize("mode", ["nll", "entropy"])
    def test_values_and_gradients_agree(self, mode):
        rng = np.random.default_rng(67)
        batches = []
        for case in range(120):
            n = int(rng.choice([64, 88, 96])) if case % 3 == 0 else int(rng.integers(2, 131))
            m = int(rng.integers(2, 11))
            z = rng.uniform(1.0, 30.0) * rng.standard_normal((n, m))
            probs = np.exp(z - z.max(axis=1, keepdims=True))
            probs /= probs.sum(axis=1, keepdims=True)
            truths = np.minimum((probs.cumsum(axis=1) < rng.random((n, 1))).sum(axis=1), m - 1)
            cands = generate_synthetic(truths, m, 0.3, seed=int(rng.integers(1 << 30)))
            batches.append((probs, *batch_intervals(cands)))
            got = count_loss(*batches[-1], mode)
            want = on_log_path(count_loss, *batches[-1], mode)
            assert not got.log_space and want.log_space
            assert abs(got.loss - want.loss) <= 1e-13 * max(1.0, abs(want.loss))
            assert np.all(np.abs(got.grad - want.grad) <= 1e-13 * np.maximum(1.0, np.abs(want.grad)))
        got = np.array(count_loss_values(batches, mode))
        want = np.array(on_log_path(count_loss_values, batches, mode))
        assert np.all(np.abs(got - want) <= 1e-13 * np.maximum(1.0, np.abs(want)))

    def test_gradient_near_the_floor_against_mpmath(self):
        # q is about e^-479, between the floor and 1: the probability-space
        # DP stands and its gradient stays within 1e-13 of 60-digit mpmath,
        # where the log-space DP's exponentiated shifts reach 2e-13
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 60
        rng = np.random.default_rng(71)
        n = 64
        probs = 1.0 - 10.0 ** rng.uniform(-4.0, -3.0, size=(n, 1))
        lo, hi = np.array([0]), np.array([3])
        got = count_loss(probs, lo, hi)
        assert not got.log_space

        def pmf(ps):
            row = [mp.mpf(1)]
            for x in ps:
                prev = row + [mp.mpf(0)]
                row = [prev[k] * (1 - x) + (prev[k - 1] * x if k else 0) for k in range(len(prev))]
            return row

        ps = [mp.mpf(float(x)) for x in probs[:, 0]]
        q = mp.fsum(pmf(ps)[: hi[0] + 1])
        assert -479 < mp.log(q) < -478
        assert abs(got.loss + mp.log(q)) <= 1e-15 * got.loss
        for i in range(n):
            rest = pmf(ps[:i] + ps[i + 1 :])
            want = rest[hi[0]] / q  # -(1/q) * (P(S_-i = -1) - P(S_-i = hi))
            assert abs(got.grad[i, 0] - want) <= 1e-13 * abs(want), i
