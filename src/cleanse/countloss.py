"""Log-space Poisson-binomial count distribution and the interval count loss.

Per-class label counts over a batch are sums of independent, non-identical
Bernoulli variables.  Their exact distribution is built by the O(n^2)
convolution recurrence

    P(count_n = k) = P(count_{n-1} = k-1) * p_n + P(count_{n-1} = k) * (1 - p_n)

carried out entirely in log space: products become additions and sums go
through ``logaddexp``/``logsumexp``, so a batch of 1024 near-zero
probabilities still produces finite log masses where the direct-space
product would underflow.

One row update (``_dp_row``) serves every caller, on all m classes at once:
the forward pmf, the interval adjoint of the gradient (the same update on a
reversed count axis), and the value-only path that keeps a single row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

LOG_ZERO = float("-inf")

# Clamp floor for interval probabilities in nll mode: keeps the gradient
# finite (1/q <= e^700, still inside float64 range) without changing its sign.
MIN_LOG_PROB = -700.0

_LOG_HALF = -math.log(2.0)


def log1mexp(x: float) -> float:
    """Compute log(1 - exp(x)) for x <= 0 without catastrophic cancellation.

    Uses log(-expm1(x)) when x > -ln 2 (exp(x) close to 1) and
    log1p(-exp(x)) otherwise, the standard two-branch scheme.  x = 0 maps
    to -inf (probability zero).
    """
    if x > 0.0:
        raise ValueError(f"log1mexp requires x <= 0, got {x}")
    if x == 0.0:
        return LOG_ZERO
    if x > _LOG_HALF:
        return math.log(-math.expm1(x))
    return math.log1p(-math.exp(x))


def log1mexp_vec(x: np.ndarray) -> np.ndarray:
    """Vectorized ``log1mexp`` over an array of log-probabilities."""
    x = np.asarray(x, dtype=np.float64)
    if np.any(x > 0.0):
        raise ValueError("log1mexp requires all inputs <= 0")
    out = np.empty_like(x)
    near_one = x > _LOG_HALF
    with np.errstate(divide="ignore"):
        out[near_one] = np.log(-np.expm1(x[near_one]))
        out[~near_one] = np.log1p(-np.exp(x[~near_one]))
    return out


def logsumexp(xs) -> float:
    """log(sum(exp(xs))) via max-shift; an all--inf input returns -inf."""
    xs = np.asarray(xs, dtype=np.float64)
    if xs.size == 0:
        raise ValueError("logsumexp of an empty sequence")
    m = float(np.max(xs))
    if m == LOG_ZERO:
        return LOG_ZERO
    return m + math.log(float(np.sum(np.exp(xs - m))))


@dataclass(frozen=True)
class CountDistribution:
    """Exact distribution of a per-class label count over n instances.

    ``log_pmf[k]`` is the natural-log probability that exactly k of the n
    instances carry the label; the vector has length n + 1 and its
    exponentials sum to 1.
    """

    log_pmf: np.ndarray

    @property
    def n(self) -> int:
        return len(self.log_pmf) - 1


@dataclass(frozen=True)
class CountInterval:
    """Inclusive [lo, hi] range the per-class count is constrained to."""

    lo: int
    hi: int

    def __post_init__(self):
        if not (0 <= self.lo <= self.hi):
            raise ValueError(f"invalid count interval [{self.lo}, {self.hi}]")


def _dp_row(prev: np.ndarray, out: np.ndarray, log_p, log_q, lo: int, hi: int) -> None:
    """One recurrence step on padded (m, width) rows, for columns lo <= c < hi:

        out[:, c] = logaddexp(prev[:, c-1] + log_p, prev[:, c] + log_q)

    ``log_p`` and ``log_q`` are (m, 1) columns, one entry per class.  Rows
    carry one ``-inf`` pad column on each side, so the shift of the lowest
    column needs no special case.  ``out`` may be ``prev`` itself: both
    operands are formed before anything is written.
    """
    np.logaddexp(prev[:, lo - 1 : hi - 1] + log_p, prev[:, lo:hi] + log_q, out=out[:, lo:hi])


def _forward(log_p: np.ndarray, log_q: np.ndarray, lattice: np.ndarray | None = None) -> np.ndarray:
    """Run the count recurrence over all n items; return the last padded row.

    ``log_p`` and ``log_q`` are (n, m, 1).  Column k + 1 of an (m, n + 3)
    row holds log P(count == k) per class, and row i is updated only over
    the counts 0..i it can reach.  Without ``lattice`` one row is updated
    in place (O(n m) memory); with an (n + 1, m, n + 3) ``-inf`` lattice,
    row i of it receives the distribution over the first i items.
    """
    n, m, _ = log_p.shape
    row = np.full((m, n + 3), LOG_ZERO) if lattice is None else lattice[0]
    row[:, 1] = 0.0
    for i in range(n):
        out = row if lattice is None else lattice[i + 1]
        _dp_row(row, out, log_p[i], log_q[i], 1, i + 3)
        row = out
    return row


def _log_probs(log_p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(n, m, 1) log p and log(1 - p) from an (n, m) matrix of log p."""
    log_p = np.asarray(log_p, dtype=np.float64)
    if np.any(log_p > 0.0):
        raise ValueError("log-probabilities must be <= 0")
    return log_p[:, :, None], log1mexp_vec(log_p)[:, :, None]


def count_log_pmf(log_p: np.ndarray) -> CountDistribution:
    """Log-pmf of the sum of independent Bernoullis with log-probs ``log_p``.

    Runs the convolution recurrence in place, so working memory stays O(n)
    while time is O(n^2).
    """
    log_p, log_q = _log_probs(np.asarray(log_p, dtype=np.float64)[:, None])
    return CountDistribution(log_pmf=_forward(log_p, log_q)[0, 1:-1])


def interval_log_prob(dist: CountDistribution, interval: CountInterval) -> float:
    """log P(lo <= count <= hi): logsumexp over the pmf slice."""
    if interval.hi > dist.n:
        raise ValueError(
            f"interval [{interval.lo}, {interval.hi}] exceeds support 0..{dist.n}"
        )
    return logsumexp(dist.log_pmf[interval.lo : interval.hi + 1])


def batch_intervals(candidates, m: int) -> list[CountInterval]:
    """Per-class count bounds from a batch's candidate sets.

    For class j the lower bound is the number of clean samples labeled j
    (those counts are certain) and the upper bound adds every partial
    sample that still lists j as a candidate.
    """
    if len(candidates) == 0:
        raise ValueError("batch_intervals requires a nonempty batch")
    lo = np.zeros(m, dtype=np.int64)
    extra = np.zeros(m, dtype=np.int64)
    for cs in candidates:
        if cs.is_clean():
            lo[cs.sole()] += 1
        else:
            for j in cs.labels():
                extra[j] += 1
    return [CountInterval(int(lo[j]), int(lo[j] + extra[j])) for j in range(m)]


@dataclass(frozen=True)
class CountLossResult:
    """Value and exact gradient of the count objective over one batch."""

    loss: float
    grad: np.ndarray  # d loss / d batch_probs[i][j]
    saturated: bool  # an interval probability hit the clamp floor


# Rows per block of the gradient reduction: large enough to amortise numpy
# call overhead, small enough that the (block, m, n) temporaries stay in
# cache (unblocked, n = 1024 ran slower than the per-class loop it replaced).
_GRAD_BLOCK = 64


def _batch_inputs(probs: np.ndarray, intervals, mode: str) -> tuple:
    """Validated (n, m, 1) log p and log(1 - p), and the (m,) lo and hi."""
    if mode not in ("nll", "entropy"):
        raise ValueError(f"unknown count-loss mode {mode!r}")
    probs = np.asarray(probs, dtype=np.float64)
    if probs.ndim != 2:
        raise ValueError("batch_probs must be a 2-D matrix")
    n, m = probs.shape
    if len(intervals) != m:
        raise ValueError(f"expected {m} intervals, got {len(intervals)}")
    for interval in intervals:
        if interval.hi > n:
            raise ValueError(
                f"interval [{interval.lo}, {interval.hi}] exceeds batch size {n}"
            )
    with np.errstate(divide="ignore"):
        log_p, log_q = _log_probs(np.log(probs))
    lo = np.array([iv.lo for iv in intervals], dtype=np.int64)
    hi = np.array([iv.hi for iv in intervals], dtype=np.int64)
    return log_p, log_q, lo, hi


def _interval_mask(width: int, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """(m, width) mask of the padded columns whose count lies in [lo_j, hi_j]."""
    counts = np.arange(-1, width - 1)
    return (counts >= lo[:, None]) & (counts <= hi[:, None])


def _interval_log_q(row: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Per-class log P(lo_j <= count_j <= hi_j) from a padded last DP row."""
    inside = np.where(_interval_mask(row.shape[1], lo, hi), row, LOG_ZERO)
    top = inside.max(axis=1)
    shift = np.where(top > LOG_ZERO, top, 0.0)
    with np.errstate(divide="ignore"):
        return shift + np.log(np.sum(np.exp(inside - shift[:, None]), axis=1))


def _loss_terms(log_q: np.ndarray, mode: str) -> tuple[float, np.ndarray, bool]:
    """Loss value, d loss / d q_j and the saturation flag from per-class log q.

    Roundoff can push log q a hair above 0; it is clamped there so no
    per-class term goes negative.  ``nll`` also clamps at ``MIN_LOG_PROB``
    (raising ``saturated``); ``entropy`` uses 0 log 0 = 0 for value and
    gradient alike.
    """
    log_q = np.minimum(log_q, 0.0)
    saturated = False
    if mode == "nll":
        saturated = bool(np.any(log_q < MIN_LOG_PROB))
        log_q = np.maximum(log_q, MIN_LOG_PROB)
        terms = -log_q
        dloss_dq = -1.0 / np.exp(log_q)
    else:
        possible = log_q > LOG_ZERO
        safe = np.where(possible, log_q, 0.0)
        terms = np.where(possible, -np.exp(safe) * safe, 0.0)
        dloss_dq = np.where(possible, -(safe + 1.0), 0.0)
    # summed class by class, in order, so the value is independent of m's
    # numpy reduction strategy
    return sum(terms.tolist(), 0.0), dloss_dq, saturated


def _leave_one_out_grad(
    lattice: np.ndarray, log_p: np.ndarray, log_q: np.ndarray, lo: np.ndarray, hi: np.ndarray
) -> np.ndarray:
    """(n, m) matrix of d q_j / d p_ij from the forward lattice.

    The adjoint row A_i[k] = log P(items i..n-1 bring a count of k into
    [lo, hi]) starts as the interval indicator at i = n and follows

        A_i[k] = logaddexp(A_{i+1}[k+1] + log p_i, A_{i+1}[k] + log q_i),

    which is the forward update with the count axis reversed.  Conditioning
    on item i,

        dq/dp_i = sum_k F_i[k] (A_{i+1}[k+1] - A_{i+1}[k]),

    i.e. P(S_{-i} in [lo-1, hi-1]) - P(S_{-i} in [lo, hi]).  Rows are
    processed in blocks from the end: only counts 0..i of A_i are ever
    read, so the block holds the adjoint rows it needs and the reduction
    sees the (block, m, i) triangle of the lattice, never (n, m, n).
    """
    n, m, _ = log_p.shape
    width = n + 3
    # adj[t] holds A_{b0+t} with the count axis reversed: column r is count
    # n + 1 - r, so the update is _dp_row over columns n+1-i..n+1.
    adj = np.full((_GRAD_BLOCK + 1, m, width), LOG_ZERO)
    top = (n - 1) // _GRAD_BLOCK * _GRAD_BLOCK  # start of the last block
    adj[n - top] = np.where(_interval_mask(width, lo, hi)[:, ::-1], 0.0, LOG_ZERO)
    grad = np.empty((n, m))
    for b0 in range(top, -1, -_GRAD_BLOCK):
        b1 = min(b0 + _GRAD_BLOCK, n)
        size = b1 - b0
        if b1 < n:
            adj[size] = adj[0]  # A_{b1}, carried over from the block above
        # Entries above count i keep stale values from earlier blocks; the
        # reduction pairs them only with F_i[k] = -inf.
        for t in range(size - 1, -1, -1):
            i = b0 + t
            _dp_row(adj[t + 1], adj[t], log_p[i], log_q[i], n + 1 - i, n + 2)

        fwd = lattice[b0:b1, :, 1 : b1 + 1]  # F_i[k], k = 0..b1-1
        nxt = adj[1 : size + 1, :, n + 1 - b1 : n + 2][..., ::-1]  # A_{i+1}[k], k = 0..b1
        up = fwd + nxt[..., 1:]
        down = fwd + nxt[..., :-1]
        # one max-shift for both sums keeps their difference well scaled
        shift = np.maximum(up.max(axis=2, keepdims=True), down.max(axis=2, keepdims=True))
        shift = np.where(shift > LOG_ZERO, shift, 0.0)
        np.exp(np.subtract(up, shift, out=up), out=up)
        np.exp(np.subtract(down, shift, out=down), out=down)
        grad[b0:b1] = np.exp(shift[..., 0]) * (up.sum(axis=2) - down.sum(axis=2))
    return grad


def count_loss(
    batch_probs: np.ndarray,
    intervals,
    mode: str = "nll",
) -> CountLossResult:
    """Count objective and its exact gradient w.r.t. the prediction matrix.

    Per class j the batch column is treated as independent Bernoulli
    probabilities, q_j = P(count_j in intervals[j]) comes out of the DP, and
    the per-class terms are summed:

    * ``nll``     : sum_j -log q_j (clamped at ``MIN_LOG_PROB``; hitting the
      clamp raises the ``saturated`` flag instead of returning +inf).
    * ``entropy`` : sum_j -q_j log q_j with the 0*log 0 -> 0 convention.

    All m classes run through one DP; the gradient comes from the
    leave-one-out identity evaluated on the forward lattice and its
    interval adjoint (``_leave_one_out_grad``), O(n^2 m) in all.
    """
    log_p, log_q, lo, hi = _batch_inputs(batch_probs, intervals, mode)
    n, m, _ = log_p.shape
    lattice = np.full((n + 1, m, n + 3), LOG_ZERO)
    last = _forward(log_p, log_q, lattice)
    total, dloss_dq, saturated = _loss_terms(_interval_log_q(last, lo, hi), mode)
    grad = _leave_one_out_grad(lattice, log_p, log_q, lo, hi) * dloss_dq
    return CountLossResult(loss=total, grad=grad, saturated=saturated)


def count_loss_value(batch_probs: np.ndarray, intervals, mode: str = "nll") -> float:
    """``count_loss(...).loss`` without the lattice or the gradient.

    Keeps a single DP row, so memory is O(n m); used when the count loss is
    only reported (lambda = 0).
    """
    log_p, log_q, lo, hi = _batch_inputs(batch_probs, intervals, mode)
    return _loss_terms(_interval_log_q(_forward(log_p, log_q), lo, hi), mode)[0]
