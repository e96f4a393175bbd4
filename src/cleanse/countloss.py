"""Poisson-binomial count distribution and the interval count loss.

Per-class label counts over a batch are sums of independent, non-identical
Bernoulli variables.  Their exact distribution is built by the O(n^2)
convolution recurrence

    P(count_n = k) = P(count_{n-1} = k-1) * p_n + P(count_{n-1} = k) * (1 - p_n)

in one of two number systems.  The count losses run it on the probabilities
themselves: each row is a pmf, its terms are nonnegative and sum to 1, so it
needs no rescaling and each entry keeps a relative error of O(n eps); only
entries below the smallest double lose bits, and those are too small to move
any interval probability at or above ``MIN_PROB_SPACE_LOG`` (about 1e-250).
A batch whose input is not a probability, or one of whose interval
probabilities falls below that floor, is run again in log space, where
products become additions and sums go through ``logaddexp``; so is every
batch that saturates the loss clamp.  ``count_log_pmf`` always runs in log
space, so a batch of 1024 near-zero probabilities still produces finite log
masses where the direct-space product would underflow.  ``logsumexp`` is a
left fold of ``logaddexp``, which leaves a sum bitwise unchanged by ``-inf``
entries, so a pmf row sums to the same bits however far it is padded or cut.

One forward pass (``_forward``), parameterised by its number system, serves
every caller, on all m classes at once: the pmf of one class, the value-only
path that keeps two rows, and the gradient, which runs the items forward
and reversed as 2m stacked class rows and reads its prefix and suffix pmfs
off that one lattice.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

LOG_ZERO = float("-inf")

# Clamp floor for interval log-probabilities: keeps the gradient finite
# (1/q <= e^700, still inside float64 range) without changing its sign.
MIN_LOG_PROB = -700.0

# A batch whose interval log-probabilities are all at or above this floor
# (e^-575 ~ 1e-250) keeps its probability-space DP; below it, the batch runs
# in log space.  Underflow costs a DP entry at most about 5e-324, and the
# recurrence never scales an error up, so even n * top such losses stay some
# 65 orders of magnitude under any q the probability-space path keeps; every
# q the loss clamp touches takes the log path.
MIN_PROB_SPACE_LOG = -575.0

_LOG_HALF = -math.log(2.0)


def log1mexp(x):
    """log(1 - exp(x)) elementwise for x <= 0, without catastrophic cancellation.

    Uses log(-expm1(x)) where x > -ln 2 (exp(x) close to 1) and
    log1p(-exp(x)) elsewhere, the standard two-branch scheme.  x = 0 maps
    to -inf (probability zero); a scalar in gives a scalar out.
    """
    x = np.asarray(x, dtype=np.float64)
    if np.any(x > 0.0):
        raise ValueError("log-probabilities must be <= 0")
    out = np.empty_like(x)
    near_one = x > _LOG_HALF
    with np.errstate(divide="ignore"):
        out[near_one] = np.log(-np.expm1(x[near_one]))
        out[~near_one] = np.log1p(-np.exp(x[~near_one]))
    return out[()]


def logsumexp(xs):
    """log(sum(exp(xs))) over the last axis, as a left fold of ``logaddexp``.

    ``logaddexp(acc, -inf) == acc`` holds bit for bit, so ``-inf`` entries
    anywhere in a row leave its sum unchanged: a row's bits do not depend on
    how far it is padded or which counts are masked out.  An all--inf row
    gives -inf; an empty input raises.
    """
    xs = np.asarray(xs, dtype=np.float64)
    if xs.size == 0:
        raise ValueError("logsumexp of an empty sequence")
    return np.logaddexp.reduce(xs, axis=-1)[()]


def _forward(weights: np.ndarray, top: int, lattice: bool = False,
             log_space: bool = True) -> np.ndarray:
    """Run the count recurrence over all n items; return the last row.

    ``weights`` is the (n, M, 2, 1) array of each item's step weights per
    class row: log p and log(1 - p) in log space, p and 1 - p in probability
    space.  Column k + 1 of an (M, top + 2) row holds P(count == k) per
    class, or its log; column 0 is a zero pad, so count 0 needs no special
    case.  Row i is updated only over the counts 0..min(i, top) it can
    reach.  Counts above ``top`` are never stored: a count never falls, so
    they feed no count at or below ``top``, and every kept value has the
    bits of the full recurrence.  Without ``lattice`` two rows take turns;
    with it, the (n + 1, M, top + 2) lattice is returned, whose row i is the
    distribution over the first i items.

    In probability space a step is one ``matmul`` of each count's two terms
    (P(count - 1), P(count)) with (p_i, q_i).  numpy evaluates it with its
    own loop for any number of class rows and counts, so neither stacking
    nor the stop at ``top`` moves a bit.  A step over count 0 alone (top = 0)
    may go to a BLAS dot product; its first term is the zero pad, so every
    order of evaluation gives the same bits.  The steps at and past ``top``
    cover every stored count, so they read and write views built once,
    picked by an integer index.
    """
    n, m = weights.shape[:2]
    rows = np.full((n + 1 if lattice else 2, m, top + 2), LOG_ZERO if log_space else 0.0)
    rows[0, :, 1] = 0.0 if log_space else 1.0
    steps = [(i, i + 1) if lattice else (i % 2, 1 - i % 2) for i in range(n)]
    if log_space:
        p, q = weights[:, :, 0], weights[:, :, 1]
        for i, (src, dst) in enumerate(steps):
            end = min(i + 1, top) + 2
            prev = rows[src]
            np.logaddexp(prev[:, : end - 1] + p[i], prev[:, 1:end] + q[i], out=rows[dst, :, 1:end])
    else:
        terms = sliding_window_view(rows, 2, axis=2)  # terms[r, :, k] = row r's counts k - 1 and k
        for i, (src, dst) in enumerate(steps[:top]):
            np.matmul(terms[src, :, : i + 2], weights[i], out=rows[dst, :, 1 : i + 3, None])
        full_terms, full_rows = terms[:, :, : top + 1], rows[..., 1:, None]
        for i, (src, dst) in enumerate(steps[top:], top):
            np.matmul(full_terms[src], weights[i], out=full_rows[dst])
    return rows if lattice else rows[n % 2]


def _prob_weights(parts) -> np.ndarray:
    """Probability-space step weights (p, 1 - p) of the (n, M_b, 1)
    probabilities in ``parts``, stacked in order as the class rows of one
    (n, sum M_b, 2, 1) array, which is the only one written."""
    weights = np.empty((len(parts[0]), sum(p.shape[1] for p in parts), 2, 1))
    col = 0
    for p in parts:
        weights[:, col : col + p.shape[1], 0] = p
        col += p.shape[1]
    np.subtract(1.0, weights[:, :, 0], out=weights[:, :, 1])
    return weights


def _log_weights(log_p: np.ndarray) -> np.ndarray:
    """Log-space step weights (log p, log(1 - p)) from the (n, M, 1) log p;
    ``log1mexp`` refuses log p > 0."""
    weights = np.empty((*log_p.shape[:2], 2, 1))
    weights[:, :, 0] = log_p
    weights[:, :, 1] = log1mexp(log_p)
    return weights


def count_log_pmf(log_p: np.ndarray) -> np.ndarray:
    """Log-pmf of the sum of independent Bernoullis with log-probs ``log_p``.

    Entry k of the (n + 1,) result is log P(count == k).  The recurrence
    runs in log space on two rows: O(n) working memory, O(n^2) time.
    """
    log_p = np.asarray(log_p, dtype=np.float64)[:, None, None]
    return _forward(_log_weights(log_p), len(log_p))[0, 1:]


def _check_intervals(lo: np.ndarray, hi: np.ndarray, n: int) -> None:
    """Refuse same-shape bounds outside 0 <= lo <= hi <= n, naming the first bad class."""
    bad = (lo < 0) | (lo > hi) | (hi > n)
    if bad.any():
        j = int(np.argmax(bad))
        raise ValueError(f"count interval [{lo.flat[j]}, {hi.flat[j]}] of class {j} "
                         f"is outside 0 <= lo <= hi <= {n}")


def interval_log_prob(log_pmf: np.ndarray, lo, hi):
    """log P(lo <= count <= hi) of each log-pmf row of ``log_pmf``.

    Entry k of a row is log P(count == k); a row may stop at any count
    top >= hi, as the DP's rows stop at max(hi).  ``lo`` and ``hi`` are
    integers, scalars or one per row.  ``logsumexp`` ignores the masked
    counts, so a cut row and the full (n + 1,) pmf give the same bits.
    """
    log_pmf = np.asarray(log_pmf, dtype=np.float64)
    lo, hi = np.broadcast_arrays(lo, hi)
    _check_intervals(lo, hi, log_pmf.shape[-1] - 1)
    return _interval_sum(log_pmf, lo, hi)


def _interval_sum(log_pmf: np.ndarray, lo: np.ndarray, hi: np.ndarray):
    """``interval_log_prob`` on bounds already checked, as the count losses'
    are by ``_batch_inputs``: float64 rows and same-shape integer arrays."""
    counts = np.arange(log_pmf.shape[-1])
    inside = (counts >= lo[..., None]) & (counts <= hi[..., None])
    return logsumexp(np.where(inside, log_pmf, LOG_ZERO))


def batch_intervals(candidates) -> tuple[np.ndarray, np.ndarray]:
    """Per-class count bounds ``lo, hi`` from a batch's (n, m) bool candidate mask.

    For class j, ``lo[j]`` counts the clean samples labeled j (those counts
    are certain) and ``hi[j]`` every sample that lists j as a candidate: a
    clean sample lists only its own label, so that is ``lo[j]`` plus the
    partial samples that still list j.  Both are (m,) int64 arrays.
    """
    if len(candidates) == 0:
        raise ValueError("batch_intervals requires a nonempty batch")
    clean = candidates.sum(axis=1) == 1
    return candidates[clean].sum(axis=0, dtype=np.int64), candidates.sum(axis=0, dtype=np.int64)


@dataclass(frozen=True)
class CountLossResult:
    """Value and exact gradient of the count objective over one batch."""

    loss: float
    grad: np.ndarray  # d loss / d batch_probs[i][j]
    saturated: bool  # an interval probability hit the clamp floor
    log_space: bool = False  # the batch fell back to the log-space DP


def _batch_inputs(probs: np.ndarray, lo, hi) -> tuple:
    """Validated (n, m, 1) probabilities and the (m,) lo and hi."""
    probs = np.asarray(probs, dtype=np.float64)
    if probs.ndim != 2:
        raise ValueError("batch_probs must be a 2-D matrix")
    n, m = probs.shape
    lo, hi = np.asarray(lo), np.asarray(hi)
    for bound in (lo, hi):
        if bound.shape != (m,) or not np.issubdtype(bound.dtype, np.integer):
            raise ValueError(
                f"count bounds must be integer arrays of shape ({m},), "
                f"got {bound.dtype} {bound.shape}"
            )
    _check_intervals(lo, hi, n)
    return probs[:, :, None], lo, hi


def _interval_dp(weights: np.ndarray, lo, hi, log_space: bool, lattice: bool = False):
    """``_forward`` over the (n, M, 2, 1) probability-space step weights
    ``weights`` with rows stopped at max(hi), and the interval
    log-probabilities of the first len(lo) class rows of its last row, from
    ``interval_log_prob``'s sum without its checks (``_batch_inputs`` made
    them).  In log space the DP runs on the logs of ``weights[:, :, 0]``.  A
    probability-space row reaches that sum through ``np.log``: zeros become
    ``-inf``, which it ignores.
    """
    if log_space:
        with np.errstate(divide="ignore"):
            weights = _log_weights(np.log(weights[:, :, 0]))
    rows = _forward(weights, int(hi.max()), lattice, log_space)
    last = (rows[-1] if lattice else rows)[: len(lo), 1:]
    if not log_space:
        with np.errstate(divide="ignore", invalid="ignore"):
            last = np.log(last)
    return rows, _interval_sum(last, lo, hi)


def _keeps_prob_space(p: np.ndarray, log_in: np.ndarray) -> bool:
    """Whether every input is in [0, 1] and every interval log-probability at
    or above ``MIN_PROB_SPACE_LOG`` (a nan is neither).  A batch that fails
    runs in log space, which refuses p > 1 and carries a nan through."""
    return bool(((p >= 0.0) & (p <= 1.0)).all() and (log_in >= MIN_PROB_SPACE_LOG).all())


def _loss_terms(log_q: np.ndarray) -> tuple[float, np.ndarray, bool]:
    """Loss value, d loss / d q_j and the saturation flag from per-class log q.

    Roundoff can push log q a hair above 0; it is clamped there so no
    per-class term goes negative.  It is also clamped at ``MIN_LOG_PROB``,
    which raises ``saturated``.
    """
    log_q = np.minimum(log_q, 0.0)
    saturated = bool(np.any(log_q < MIN_LOG_PROB))
    log_q = np.maximum(log_q, MIN_LOG_PROB)
    dloss_dq = -1.0 / np.exp(log_q)
    # summed class by class, left to right, so the value depends neither on
    # numpy's reduction strategy for m nor on the Python version (sum() of
    # floats is compensated from 3.12 on)
    total = 0.0
    for log_qj in log_q.tolist():
        total -= log_qj
    return total, dloss_dq, saturated


def _leave_one_out_grad(lattice: np.ndarray, lo: np.ndarray, hi: np.ndarray,
                        log_space: bool) -> np.ndarray:
    """(n, m) matrix of d q_j / d p_ij from the stacked prefix/suffix lattice.

    ``lattice`` is ``_forward``'s over the items followed, as classes m..2m-1,
    by the same items reversed: rows :m of lattice[i] are the prefix pmfs F_i
    (items 0..i-1) and rows m: of lattice[n-1-i] the suffix pmfs B_{i+1}
    (items i+1..n-1).  Conditioning q on item i, the interval sums telescope:

        dq/dp_i = P(S_{-i} = lo-1) - P(S_{-i} = hi),
        P(S_{-i} = c) = sum_k F_i[k] B_{i+1}[c-k],

    two slice dot products per class.  At lo = 0 the first slices are empty
    and its term is 0.
    """
    multiply = np.add if log_space else np.multiply  # a product in the lattice's number system
    n = len(lattice) - 1
    m = lattice.shape[1] // 2
    fwd = lattice[:n, :m]  # F_i, i = 0..n-1
    bwd = lattice[n - 1 :: -1, m:]  # B_{i+1}, i = 0..n-1
    grad = np.empty((n, m))
    for j in range(m):
        up, down = (multiply(fwd[:, j, 1 : c + 2], bwd[:, j, c + 1 : 0 : -1])
                    for c in (lo[j] - 1, hi[j]))
        scale = 1.0
        if log_space:
            # one max-shift for both sums keeps their difference well scaled
            shift = np.maximum(*(t.max(axis=1, initial=LOG_ZERO) for t in (up, down)))
            shift = np.where(shift > LOG_ZERO, shift, 0.0)
            up, down = (np.exp(t - shift[:, None]) for t in (up, down))
            scale = np.exp(shift)
        grad[:, j] = scale * (up.sum(axis=1) - down.sum(axis=1))
    return grad


def count_loss(batch_probs: np.ndarray, lo, hi) -> CountLossResult:
    """Count objective and its exact gradient w.r.t. the prediction matrix.

    Per class j the batch column is treated as independent Bernoulli
    probabilities, and q_j = P(lo[j] <= count_j <= hi[j]) comes out of the
    DP.  The objective is the negative log-likelihood of the intervals,
    -sum_j log q_j, the differentiable count loss of Shukla et al. (NeurIPS
    2023).  Each log q_j is clamped at ``MIN_LOG_PROB``: a q_j below it
    raises the ``saturated`` flag instead of returning +inf.

    All m classes, and the same items in reverse order, run through one DP,
    in probability space unless the batch falls back to log space
    (``_keeps_prob_space``); the gradient comes from the leave-one-out
    identity evaluated on its prefix and suffix pmfs (``_leave_one_out_grad``),
    O(n^2 m) in all.
    """
    p, lo, hi = _batch_inputs(batch_probs, lo, hi)
    both_ways = _prob_weights((p, p[::-1]))  # items reversed as classes m..2m-1
    log_space = False
    lattice, log_in = _interval_dp(both_ways, lo, hi, log_space, lattice=True)
    if not _keeps_prob_space(p, log_in):
        log_space = True
        lattice, log_in = _interval_dp(both_ways, lo, hi, log_space, lattice=True)
    total, dloss_dq, saturated = _loss_terms(log_in)
    grad = _leave_one_out_grad(lattice, lo, hi, log_space) * dloss_dq
    return CountLossResult(loss=total, grad=grad, saturated=saturated, log_space=log_space)


def count_loss_values(batches) -> list[float]:
    """``count_loss(probs, lo, hi).loss`` of each ``(probs, lo, hi)`` batch.

    Value only: no lattice and no gradient, so memory is O(n m) per batch;
    used when the count loss is only reported (lambda = 0).  Batches of one
    size n share one probability-space DP: their (n, m, 1) probabilities are
    stacked into (n, B m, 1) class rows, which the recurrence treats
    independently, so each batch's value has the bits it gets on its own.
    The batches among them that fall back run again, stacked, in log space,
    so a batch's bits do not depend on the others either way.  Values come
    back in batch order.
    """
    inputs = [_batch_inputs(probs, lo, hi) for probs, lo, hi in batches]
    by_size: dict[int, list[int]] = {}
    for b, (p, _, _) in enumerate(inputs):
        by_size.setdefault(p.shape[0], []).append(b)
    values = [0.0] * len(inputs)
    for group in by_size.values():
        log_in = _stacked_interval_dp(inputs, group, log_space=False)
        fallback = [b for b in group if not _keeps_prob_space(inputs[b][0], log_in[b])]
        if fallback:
            log_in.update(_stacked_interval_dp(inputs, fallback, log_space=True))
        for b in group:
            values[b] = _loss_terms(log_in[b])[0]
    return values


def _stacked_interval_dp(inputs: list, group: list[int], log_space: bool) -> dict:
    """Interval log-probabilities of each batch b in ``group`` (all of one
    size), keyed by b, from one value-only DP over their stacked class rows."""
    p, lo, hi = zip(*(inputs[b] for b in group))
    _, log_in = _interval_dp(_prob_weights(p), np.concatenate(lo), np.concatenate(hi), log_space)
    ends = np.cumsum([len(inputs[b][1]) for b in group])
    return dict(zip(group, np.split(log_in, ends[:-1])))
