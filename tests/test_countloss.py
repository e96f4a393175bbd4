"""Count-distribution and count-loss tests against independent oracles:
exhaustive 2^n enumeration, extended-precision references, and central
finite differences."""

import math
import tracemalloc

import numpy as np
import pytest

import cleanse.countloss as countloss_module
from cleanse.countloss import (
    LOG_ZERO,
    MIN_PROB_SPACE_LOG,
    batch_intervals,
    count_log_pmf,
    count_loss,
    count_loss_value,
    interval_log_prob,
    log1mexp,
    logsumexp,
)
import cleanse.checks as checks_module
from cleanse.data import generate_synthetic
from cleanse.checks import (
    check_count_loss_grad_at_scale,
    check_count_loss_log_fallback,
    check_underflow_stress,
    loss_by_enumeration,
    pmf_by_enumeration,
    relative_error,
)


def on_log_path(fn, *args):
    """``fn(*args)`` with every batch falling back to the log-space tree: no
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
    """count_loss and count_loss_value call the log1mexp, logsumexp and
    interval sum the tests above and ``cleanse check`` test, not private
    copies of them.  The interval sum is ``interval_log_prob`` without its
    bounds check, which ``_batch_inputs`` has already made.  A batch that
    falls back runs a second tree in log space, after its probability-space
    one: log1mexp makes that tree's leaves, each of its window products is a
    ``logsumexp``, and its root has an interval sum of its own."""

    @pytest.mark.parametrize("name", ["log1mexp", "logsumexp", "_interval_sum"],
                             ids=["log1mexp", "logsumexp", "interval_sum"])
    def test_both_paths_call_the_module_function(self, monkeypatch, name):
        calls, products = [], []
        original, window_dot = getattr(countloss_module, name), countloss_module._window_dot

        def counting(*args):
            calls.append(np.shape(args[0]))
            return original(*args)

        monkeypatch.setattr(countloss_module, name, counting)
        monkeypatch.setattr(countloss_module, "_window_dot",
                            lambda *args: products.append(args[-1]) or window_dot(*args))
        probs = np.array([[0.2, 0.8], [0.6, 0.4], [0.5, 0.5]])
        lo, hi = np.array([0, 1]), np.array([2, 3])
        # three items make a tree of two levels; the gradient's pass, run in
        # the number system that stands, reads the root's children off it and
        # takes one product down to the leaves; the value skips that pass
        for fn, per_tree in ((count_loss, 3), (count_loss_value, 2)):
            for log_space in (False, True):
                run = on_log_path if log_space else _direct
                calls.clear()
                products.clear()
                run(fn, probs, lo, hi)
                trees = 2 if log_space else 1
                assert products == ([False, False] + [True] * per_tree if log_space
                                    else [False] * per_tree)
                want = {"log1mexp": trees - 1,
                        "logsumexp": trees + sum(products),
                        "_interval_sum": trees}[name]
                assert len(calls) == want

    def test_interval_log_prob_is_the_checked_interval_sum(self, monkeypatch):
        calls = []
        original = countloss_module._interval_sum
        monkeypatch.setattr(countloss_module, "_interval_sum",
                            lambda *args: calls.append(args) or original(*args))
        log_pmf = np.log([0.25, 0.5, 0.25])
        assert interval_log_prob(log_pmf, 0, 1) == logsumexp(log_pmf[:2])
        assert len(calls) == 1
        with pytest.raises(ValueError, match="outside 0 <= lo <= hi <= 2"):
            interval_log_prob(log_pmf, 1, 3)
        assert len(calls) == 1

    def test_the_oracle_path_has_the_training_bits(self):
        # interval-prob-vs-enumeration sums count_log_pmf's array with this very
        # function; the count losses sum their tree's root, cut at max(hi), and
        # the sum ignores the -inf masked counts (zeros of a probability-space
        # root included), so each path gets the bits of its full root: the log
        # path those of count_log_pmf, the probability path those of the same
        # tree run on p and 1 - p
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
            root = _full_root(probs, log_space=False)
            want = -min(interval_log_prob(np.log(root[0]), lo[0], hi[0]), 0.0)
            assert count_loss(probs, lo, hi).loss == want
            assert count_loss_value(probs, lo, hi) == want


def _full_root(probs, log_space):
    """The (m, n + 1) root of the product tree over the (n, m) ``probs``,
    stopped at count n: in probability space, or in log space on their logs."""
    x = probs.T
    if log_space:
        with np.errstate(divide="ignore"):
            x = np.log(x)
    n = len(probs)
    return countloss_module._root(countloss_module._tree(
        countloss_module._leaves(x, log_space), n, log_space))[:, : n + 1]


def _uncut_tree(monkeypatch):
    """Make every tree keep all its coefficients, whatever max(hi) is: a top
    of twice the leaf count is past every count."""
    tree = countloss_module._tree
    monkeypatch.setattr(countloss_module, "_tree",
                        lambda leaves, top, log_space: tree(leaves, 2 * leaves.shape[1], log_space))


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

    def test_non_integer_bounds_rejected(self):
        # a bound of 0.5 once summed counts 1..1 and a nan bound gave -inf
        log_pmf = count_log_pmf(np.log([0.5, 0.5]))
        for lo, hi in [(0.5, 1.5), (0, 1.0), (math.nan, 1), (0, math.nan), (False, True),
                       (np.array([0.0]), np.array([1])), (0, "1")]:
            with pytest.raises(ValueError, match="count bounds must be integers"):
                interval_log_prob(log_pmf, lo, hi)
        assert interval_log_prob(log_pmf, np.int32(1), np.uint8(2)) == logsumexp(log_pmf[1:])

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
        res = count_loss(probs, np.full(2, 0), np.full(2, 3))
        assert res.loss == pytest.approx(0.0, abs=1e-12)
        np.testing.assert_allclose(res.grad, 0.0, atol=1e-12)
        assert not res.saturated

    def test_nll_two_fair_coins(self):
        probs = np.full((2, 2), 0.5)
        res = count_loss(probs, np.full(2, 1), np.full(2, 2))
        assert res.loss == pytest.approx(2.0 * -math.log(0.75), abs=1e-12)

    def test_nll_loss_nonnegative_zero_iff_certain(self):
        rng = np.random.default_rng(21)
        for _ in range(30):
            probs, lo, hi = _random_instance(rng)
            res = count_loss(probs, lo, hi)
            assert res.loss >= 0.0
        certain = np.full(3, 0), np.full(3, 4)
        assert count_loss(np.full((4, 3), 1 / 3), *certain).loss == pytest.approx(
            0.0, abs=1e-12
        )

    def test_grad_matches_finite_differences(self):
        rng = np.random.default_rng(13)
        h = 1e-6
        for _ in range(20):
            probs, lo, hi = _random_instance(rng)
            res = count_loss(probs, lo, hi)
            for i in range(probs.shape[0]):
                for j in range(probs.shape[1]):
                    plus = probs.copy()
                    plus[i, j] += h
                    minus = probs.copy()
                    minus[i, j] -= h
                    fd = (count_loss(plus, lo, hi).loss - count_loss(minus, lo, hi).loss) / (2 * h)
                    assert relative_error(res.grad[i, j], fd) <= 1e-6

    def test_saturation_flag_and_finite_grad(self):
        # both instances predict class 0 with certainty but the interval
        # demands count 0: interval probability is exactly zero
        probs = np.array([[1.0, 0.0], [1.0, 0.0]])
        res = count_loss(probs, np.array([0, 2]), np.array([0, 2]))
        assert res.saturated
        assert math.isfinite(res.loss)
        assert np.all(np.isfinite(res.grad))

    def test_unknown_mode_rejected(self):
        # no mode parameter since 0.4.0: -sum_j log q_j is the one objective
        probs, lo, hi = np.full((2, 2), 0.5), np.full(2, 0), np.full(2, 2)
        with pytest.raises(TypeError):
            count_loss(probs, lo, hi, "entropy")
        with pytest.raises(TypeError):
            count_loss_value(probs, lo, hi, "entropy")

    def test_interval_beyond_batch_rejected(self):
        for fn in (count_loss, count_loss_value):
            with pytest.raises(ValueError):
                fn(np.full((2, 2), 0.5), np.full(2, 0), np.full(2, 3))

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
            fn(np.full((3, 3), 1 / 3), np.array(lo), np.array(hi))

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
                fn(probs, lo, hi)
        # the old call shape, a list of (lo, hi) pairs and a mode, must not be
        # misread at m = 2
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
            res = count_loss(probs, np.full(m, 0), np.full(m, n))
            assert res.loss >= 0.0

    def test_grad_matches_leave_one_out_at_scale(self):
        # n = 1000, with intervals that touch lo = 0 and hi = n
        result = check_count_loss_grad_at_scale(np.random.default_rng(0))
        assert result.passed, result

    def test_grad_of_a_wide_interval_against_mpmath(self):
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
        got = count_loss(probs, lo, hi).grad

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
            for i in range(n):
                before, after = pre[i], suf[n - 1 - i]

                def mass(c):  # P(S_{-i} = c)
                    return mp.fsum(before[k] * after[c - k] for k in range(len(before))
                                   if 0 <= c - k < len(after))

                want = -(mass(lo[j] - 1) - mass(hi[j])) / q
                assert abs(got[i, j] - want) <= 1e-11 * abs(want), (i, j)

    def test_value_path_matches_count_loss(self):
        rng = np.random.default_rng(17)
        for max_n in (8, 8, 8, 200, 1000):
            probs, lo, hi = _random_instance(rng, max_n)
            want = count_loss(probs, lo, hi).loss
            assert count_loss_value(probs, lo, hi) == want

    def test_terms_are_summed_left_to_right(self):
        # 1 + 1e-16 rounds back to 1 each time; a compensated sum (Python's
        # sum() of floats from 3.12 on) would return 1.0000000000000002
        total, _, _ = countloss_module._loss_terms(np.array([-1.0, -1e-16, -1e-16]))
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


def _full_row_value(probs, lo, hi, log_space):
    """The value with every coefficient of the root kept (no stop at
    max(hi)), from the log-space tree or the probability-space one."""
    _, lo, hi = countloss_module._batch_inputs(probs, lo, hi)
    root = _full_root(probs, log_space)
    if not log_space:
        with np.errstate(divide="ignore"):
            root = np.log(root)
    return countloss_module._loss_terms(interval_log_prob(root, lo, hi))[0]


class TestCountLossValues:
    def test_values_equal_the_full_root_bitwise(self):
        # the batches of epochs of several sizes, merged tails included
        rng = np.random.default_rng(23)
        for n_rows in (2, 5, 63, 64, 65, 160, 200):
            for m in (2, 3, 7, 10):
                for p, lo, hi in _epoch_of_batches(rng, n_rows, m):
                    for run in (_direct, on_log_path):
                        got = run(count_loss_value, p, lo, hi)
                        # the full root in the number system the batch's tree ran in
                        log_space = run(count_loss, p, lo, hi).log_space
                        assert got == _full_row_value(p, lo, hi, log_space)

    @pytest.mark.parametrize("n", [1, 2, 64])
    def test_batch_whose_intervals_stop_at_zero_keeps_its_bits(self, n):
        # a tree stopped at count 0 keeps one coefficient per node, where an
        # uncut one keeps them all; both must give the same bits
        rng = np.random.default_rng(n + 70)
        zero_top = (rng.uniform(0.0, 0.05, size=(n, 3)), np.zeros(3, dtype=np.int64),
                    np.zeros(3, dtype=np.int64))
        alone = count_loss(*zero_top)
        assert not alone.log_space
        assert alone.loss == count_loss_value(*zero_top)
        with pytest.MonkeyPatch.context() as patch:
            _uncut_tree(patch)
            full = count_loss(*zero_top)
        assert full.loss == alone.loss
        assert full.grad.tobytes() == alone.grad.tobytes()

    @pytest.mark.parametrize("n", [64, 1000])
    def test_top_stop_keeps_count_loss_bits(self, monkeypatch, n):
        # both number systems: the probability-space tree this batch takes,
        # and the log-space one it falls back to under a floor of +inf
        rng = np.random.default_rng(n)
        m = 4
        cands = generate_synthetic(rng.integers(0, m, size=n), m, 0.2, seed=n + 1)
        z = 2.0 * rng.standard_normal((n, m))
        probs = np.exp(z) / np.exp(z).sum(axis=1, keepdims=True)
        lo, hi = batch_intervals(cands)
        assert hi.max() < n  # the stop drops counts
        for log_space in (False, True):
            with monkeypatch.context() as patch:
                if log_space:
                    patch.setattr(countloss_module, "MIN_PROB_SPACE_LOG", math.inf)
                got = count_loss(probs, lo, hi)
                got_value = count_loss_value(probs, lo, hi)
                assert got.log_space == log_space
                _uncut_tree(patch)
                want = count_loss(probs, lo, hi)
                assert want.log_space == log_space
                assert got.loss == want.loss
                assert got.grad.tobytes() == want.grad.tobytes()
                assert got.saturated == want.saturated
                assert got_value == count_loss_value(probs, lo, hi)


def _direct(fn, *args):
    return fn(*args)


def _enumerated_grad(probs, lo, hi):
    """d loss / d p_ij = -(P(S_-i = lo - 1) - P(S_-i = hi)) / q_j, every
    mass from ``pmf_by_enumeration``."""
    n, m = probs.shape
    grad = np.empty((n, m))
    for j in range(m):
        q = float(np.sum(pmf_by_enumeration(probs[:, j])[lo[j] : hi[j] + 1]))
        for i in range(n):
            rest = np.append(pmf_by_enumeration(np.delete(probs[:, j], i)), 0.0)  # counts 0..n
            up = rest[lo[j] - 1] if lo[j] > 0 else 0.0
            grad[i, j] = -(up - rest[hi[j]]) / q
    return grad


def _sequential_window_dots(monkeypatch):
    """A list that gets, for every probability-space window product, whether
    its result has the bits of the sum taken term by term from t = 0."""
    window_dot, checked = countloss_module._window_dot, []

    def ordered(windows, column, out, log_space):
        window_dot(windows, column, out, log_space)
        if not log_space:
            row = column[..., 0]
            total = np.zeros(np.broadcast_shapes(windows.shape[:-1], row.shape[:-1] + (1,)))
            for t in range(windows.shape[-1]):
                total = total + windows[..., t] * row[..., None, t]
            checked.append(total.tobytes() == np.ascontiguousarray(out[..., 0]).tobytes())

    monkeypatch.setattr(countloss_module, "_window_dot", ordered)
    return checked


class TestProductTree:
    """The product tree against the enumeration oracles at sizes whose levels
    end in an odd node or do not, and its bits against where its rows stop
    and how numpy evaluates its products."""

    @pytest.mark.parametrize("log_space", [False, True], ids=["prob", "log"])
    @pytest.mark.parametrize("n", [1, 2, 3, 5, 7, 12])
    def test_value_and_gradient_match_enumeration(self, n, log_space):
        run = on_log_path if log_space else _direct
        rng = np.random.default_rng(100 + n)
        m = 4
        for _ in range(3):
            probs = rng.dirichlet(np.ones(m), size=n)
            lo = rng.integers(0, n + 1, size=m)
            hi = lo + rng.integers(0, n + 1 - lo)
            lo[:3] = 0, 0, rng.integers(0, n + 1)  # [0, n] (certain), [0, hi], [lo, n]
            hi[:3] = n, rng.integers(0, n + 1), n
            res = run(count_loss, probs, lo, hi)
            assert res.log_space == log_space
            assert relative_error(res.loss, loss_by_enumeration(probs, lo, hi)) <= 1e-13
            want = _enumerated_grad(probs, lo, hi)
            assert np.all(np.abs(res.grad - want) <= 1e-12 * np.maximum(1.0, np.abs(want)))
            assert np.all(res.grad[:, 0] == 0.0)

    def test_count_loss_value_is_count_loss_bitwise(self):
        rng = np.random.default_rng(73)
        for n_rows in (1, 2, 3, 5, 64, 88, 200):
            for m in (2, 3, 10):
                for batch in _epoch_of_batches(rng, n_rows, m):
                    for run in (_direct, on_log_path):
                        got = run(count_loss, *batch)
                        assert got.loss == run(count_loss_value, *batch)
        # a far-tail batch falls back to log space on its own
        tail = _far_tail_batch(rng)
        assert count_loss(*tail).log_space
        assert count_loss(*tail).loss == count_loss_value(*tail)

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 64, 88])
    def test_rows_stopped_at_max_hi_keep_value_and_gradient_bits(self, monkeypatch, n):
        rng = np.random.default_rng(n + 80)
        probs, lo, hi = _epoch_of_batches(rng, n, 4)[0]
        for run in (_direct, on_log_path):
            got = run(count_loss, probs, lo, hi)
            with monkeypatch.context() as patch:
                _uncut_tree(patch)
                want = run(count_loss, probs, lo, hi)
            assert got.log_space == want.log_space == (run is on_log_path)
            assert got.loss == want.loss
            assert got.grad.tobytes() == want.grad.tobytes()

    def test_every_product_is_numpy_s_own_sequential_loop(self, monkeypatch):
        # desk's two batch sizes, big-batch's, and a value-only epoch at
        # mnist-shape's m: no product goes to BLAS, so none depends on its threads
        checked = _sequential_window_dots(monkeypatch)
        rng = np.random.default_rng(89)
        for n, m in ((64, 3), (88, 3), (1024, 5)):
            count_loss(*_epoch_of_batches(rng, n, m)[0])
        for batch in _epoch_of_batches(rng, 352, 10):
            count_loss_value(*batch)
        assert len(checked) > 30 and all(checked)


class TestCountLossMemory:
    """The gradient's tree keeps O(n log n) coefficients per class row and
    one level of functionals at a time, a value-only tree two levels, and
    the log-space products run in blocks."""

    def test_count_loss_at_big_batch_shape_keeps_no_lattice(self):
        # the sequential DP's prefix/suffix lattice alone held
        # (n + 1) 2m (max(hi) + 2) float64s here, over 30 MiB
        rng = np.random.default_rng(83)
        n, m = 1024, 5
        z = rng.standard_normal((n, m))
        probs = np.exp(z) / np.exp(z).sum(axis=1, keepdims=True)
        lo, hi = batch_intervals(generate_synthetic(rng.integers(0, m, size=n), m, 0.3, seed=84))
        assert (n + 1) * 2 * m * (int(hi.max()) + 2) * 8 > 30 * 2**20
        count_loss(probs, lo, hi)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            count_loss(probs, lo, hi)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20

    def test_value_only_trees_take_a_bounded_block_of_rows(self):
        # one count_loss_value at big-batch's shape: its tree holds two levels
        # at a time, 0.54 MiB traced here, where one that kept every level,
        # as the gradient's does, took 1.36
        rng = np.random.default_rng(97)
        n, m = 1024, 5
        z = rng.standard_normal((n, m))
        probs = np.exp(z) / np.exp(z).sum(axis=1, keepdims=True)
        lo, hi = batch_intervals(generate_synthetic(rng.integers(0, m, size=n), m, 0.3, seed=98))
        assert not count_loss(probs, lo, hi).log_space
        count_loss_value(probs, lo, hi)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            count_loss_value(probs, lo, hi)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < 0.75 * 2**20

    def test_underflow_stress_at_4096_builds_no_square_window_array(self):
        # the root's 4097 x 2049 windows would take 64 MiB in one piece
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            result = check_underflow_stress(4096)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert result.passed, result
        assert peak < 4 * 2**20


def _log_space_rows(monkeypatch):
    """A list that gets the class-row count of every log-space ``_tree`` call."""
    rows = []
    tree = countloss_module._tree

    def counting(leaves, top, log_space):
        if log_space:
            rows.append(leaves.shape[0])
        return tree(leaves, top, log_space)

    monkeypatch.setattr(countloss_module, "_tree", counting)
    return rows


def _far_tail_batch(rng, n=1024, m=2):
    """p near 0.45 and intervals [0, 0]: q_j = prod_i (1 - p_ij) is about
    e^-612, below the probability-space floor and above the loss clamp."""
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
        res = count_loss(probs, lo, hi)
        assert rows == [probs.shape[1]]  # one tree over the batch's classes
        assert res.log_space and not res.saturated
        assert res.loss == pytest.approx(-float(log_q.sum()), rel=1e-13)
        np.testing.assert_allclose(res.grad, 1.0 / (1.0 - probs), rtol=1e-11)

    def test_fallback_value_runs_one_log_space_tree(self, monkeypatch):
        rng = np.random.default_rng(59)
        tail = _far_tail_batch(rng)
        want = count_loss(*tail).loss
        rows = _log_space_rows(monkeypatch)
        assert count_loss_value(*tail) == want
        # one log-space tree, over the batch's two class rows
        assert rows == [2]

    def test_ordinary_batches_stay_in_probability_space(self, monkeypatch):
        rng = np.random.default_rng(61)
        batches = [_ordinary_batch(rng, n, 3) for n in (64, 64, 96)]
        rows = _log_space_rows(monkeypatch)
        for batch in batches:
            assert not count_loss(*batch).log_space
            count_loss_value(*batch)
        assert rows == []

    def test_saturated_batch_runs_in_log_space(self):
        probs = np.array([[1.0, 0.0], [1.0, 0.0]])
        res = count_loss(probs, np.array([0, 2]), np.array([0, 2]))
        assert res.saturated and res.log_space

    def test_input_that_is_not_a_probability_runs_in_log_space(self):
        lo, hi = np.array([0, 0]), np.array([1, 2])
        for bad in (math.nan, -0.5):
            probs = np.array([[0.5, bad], [0.3, 0.7]])
            with np.errstate(invalid="ignore"):
                res = count_loss(probs, lo, hi)
                value = count_loss_value(probs, lo, hi)
            assert res.log_space and math.isnan(res.loss) and math.isnan(value)
        for fn in (count_loss, count_loss_value):
            with pytest.raises(ValueError, match="must be <= 0"):
                fn(np.array([[1.5, 0.5]]), np.array([1, 0]), np.array([1, 1]))

    def test_the_fallback_check_passes(self):
        result = check_count_loss_log_fallback(np.random.default_rng(0))
        assert result.passed, result


class TestProbabilitySpaceMatchesLogSpace:
    """The probability-space tree against the log-space one it replaces, on
    batches whose intervals come from candidate sets drawn around the
    predictions: random n and m, logit scales up to 30 (p down to about
    1e-70), and the merged-tail batch sizes of a 64-row epoch."""

    def test_values_and_gradients_agree(self):
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
            got = count_loss(*batches[-1])
            want = on_log_path(count_loss, *batches[-1])
            assert not got.log_space and want.log_space
            assert abs(got.loss - want.loss) <= 1e-13 * max(1.0, abs(want.loss))
            assert np.all(np.abs(got.grad - want.grad) <= 1e-13 * np.maximum(1.0, np.abs(want.grad)))
        got = np.array([count_loss_value(*batch) for batch in batches])
        want = np.array([on_log_path(count_loss_value, *batch) for batch in batches])
        assert np.all(np.abs(got - want) <= 1e-13 * np.maximum(1.0, np.abs(want)))

    def test_gradient_near_the_floor_against_mpmath(self):
        # q is about e^-479, between the floor and 1: the probability-space
        # tree stands and its gradient stays within 1e-13 of 60-digit mpmath
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
