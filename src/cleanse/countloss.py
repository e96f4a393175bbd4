"""Poisson-binomial count distribution and the interval count loss.

Per-class label counts over a batch are sums of independent, non-identical
Bernoulli variables.  The count's generating function is the product of
the items' polynomials (1 - p_i) + p_i z, whose coefficient k is
P(count == k).  Every count distribution here is that product, built as a
product tree: the leaves are the items, and each level multiplies
neighbouring nodes pairwise, so n items take ceil(log2 n) levels.  An odd
node out is paired with the polynomial 1, which changes no bit.
Coefficients above ``top`` are never stored: a count never falls, so they
feed no count at or below ``top``, and every kept one has the bits of the
full product.

A level is one batched window product over all its class rows and node
pairs: coefficient k of a pair's product is one window of the right node's
zero-padded coefficients against the left node's, reversed.  In
probability space that is one ``matmul``; the windows overlap and the
reversed operand runs backwards, so numpy never hands them to BLAS, and
each dot product is its own sequential loop.  So no bit depends on the
thread count, on how many class rows share a tree or on where rows stop.

The count losses run the tree on the probabilities themselves: every node
is a pmf, each coefficient a sum of nonnegative products, so it needs no
rescaling and keeps a relative error of O(n eps); only entries below the
smallest double lose bits, and a product with a pmf never scales such a
loss up, so they are too small to move any interval probability at or
above ``MIN_PROB_SPACE_LOG`` (about 1e-250).  A batch whose input is not a
probability, or one of whose interval probabilities falls below that
floor, is run again in log space, where products become additions and each
window is summed by ``logsumexp``, in blocks of output counts; so is every
batch that saturates the loss clamp.  ``count_log_pmf`` always runs in log
space, so a batch of 1024 near-zero probabilities still produces finite
log masses where the direct-space product would underflow.  ``logsumexp``
is a left fold of ``logaddexp``, which leaves a sum bitwise unchanged by
``-inf`` entries, so a pmf row sums to the same bits however far it is
padded or cut.

The gradient needs each item's leave-one-out masses P(S_{-i} = lo - 1) and
P(S_{-i} = hi).  They come from one pass down the same levels, which
carries two point functionals of the root, its coefficients at lo and at
hi, by correlating each parent's functional with the node's sibling
(``_point_masses``).  One tree serves every caller, on all m classes at
once; ``count_loss_value``, for callers that only report the loss, builds
the same tree, with the same fallback, and skips the pass down.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

LOG_ZERO = float("-inf")

# Clamp floor for interval log-probabilities: keeps the gradient finite
# (1/q <= e^700, still inside float64 range) without changing its sign.
MIN_LOG_PROB = -700.0

# A batch whose interval log-probabilities are all at or above this floor
# (e^-575 ~ 1e-250) keeps its probability-space tree; below it, the batch
# runs in log space.  Underflow costs a tree coefficient at most about
# 5e-324, and a product with a pmf never scales an error up, so even such a
# loss in every coefficient of the tree stays some 65 orders of magnitude
# under any q the probability-space path keeps; every q the loss clamp
# touches takes the log path.
MIN_PROB_SPACE_LOG = -575.0

_LOG_HALF = -math.log(2.0)

# A log-space window product sums its windows in blocks of output counts of
# at most this many float64 elements (1 MiB).
_LOG_BLOCK_ELEMENTS = 1 << 17


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


def _window_dot(windows: np.ndarray, column: np.ndarray, out: np.ndarray,
                log_space: bool) -> None:
    """out[..., k, 0] = sum_t windows[..., k, t] * column[..., t, 0],
    broadcast over the leading axes; in log space, the ``logsumexp`` over t
    of windows + column, in blocks of output counts k.

    In probability space this is one matrix-vector ``matmul``.  No matrix
    the tree passes is one BLAS takes (windows overlap; the leaves' sibling
    pairs run backwards) unless it holds one term, so numpy runs its own
    loop, which adds the terms in order from t = 0.  (numpy copies the
    strided operands of a matrix-matrix product and hands them to BLAS, so
    a product of more than one column would not keep that order.)
    """
    if not log_space:
        np.matmul(windows, column, out=out)
        return
    row = column.swapaxes(-1, -2)
    counts, width = windows.shape[-2:]
    step = max(_LOG_BLOCK_ELEMENTS // (out.size // counts * width), 1)
    for k in range(0, counts, step):
        out[..., k : k + step, 0] = logsumexp(windows[..., k : k + step, :] + row)


def _blank(shape: tuple, log_space: bool) -> np.ndarray:
    """An array of zero masses: 0, or -inf in log space."""
    return np.full(shape, LOG_ZERO) if log_space else np.zeros(shape)


def _leaves(x: np.ndarray, log_space: bool) -> np.ndarray:
    """Level 0 of the product tree over the (M, n) probabilities ``x``, or
    their logs in log space: item i's polynomial (1 - p_i, p_i) in node
    storage (``_tree``), then the polynomial 1 up to an even count of at
    least two, so the root is a product.  ``log1mexp`` refuses log p > 0."""
    m, n = x.shape
    leaves = _blank((m, max(n + n % 2, 2), 4), log_space)
    leaves[:, n:, 1] = 0.0 if log_space else 1.0
    leaves[:, :n, 2] = x
    if log_space:
        leaves[:, :n, 1] = log1mexp(x)
    else:
        np.subtract(1.0, x, out=leaves[:, :n, 1])
    return leaves


def _size(level: np.ndarray) -> int:
    """Coefficients per node of a level in node storage."""
    return (level.shape[-1] + 2) // 3


def _view(base: np.ndarray, offset: int, shape: tuple, strides: tuple) -> np.ndarray:
    """A strided view into the C-contiguous float64 ``base``, ``offset``
    counted in elements and ``strides`` in bytes: ``as_strided`` for the
    cost of one constructor call."""
    return np.ndarray(shape, np.float64, base, 8 * offset, strides)


def _tree(leaves: np.ndarray, top: int, log_space: bool):
    """Yield every level of the product tree over ``leaves``, from them to
    the root; a level is made while only the one below it is held.

    A level of N nodes of L coefficients each is a C-contiguous
    (M, N, 3L - 2) array: node a's coefficients sit at [L - 1, 2L - 1)
    between zero pads, so window k of width L over it holds its
    coefficients k - L + 1 .. k.  Below the root N is even, an odd node out
    paired with the polynomial 1.  A pair's product keeps its coefficients
    0 .. min(2L - 2, top): window k of the right node against the left
    node reversed.
    """
    nodes = leaves
    yield nodes
    while nodes.shape[1] > 1:
        (m, n, width), (row, node, _) = nodes.shape, nodes.strides
        pairs, size = n // 2, _size(nodes)
        counts = min(2 * size - 1, top + 1)
        parents = _blank((m, pairs + pairs % 2 if pairs > 1 else 1, 3 * counts - 2), log_space)
        if pairs % 2 and pairs > 1:
            parents[:, pairs, counts - 1] = 0.0 if log_space else 1.0
        windows = _view(nodes, width, (m, pairs, counts, size), (row, 2 * node, 8, 8))
        left = _view(nodes, 2 * size - 2, (m, pairs, size, 1), (row, 2 * node, -8, 8))
        _window_dot(windows, left, parents[:, :pairs, counts - 1 : 2 * counts - 1, None], log_space)
        nodes = parents
        yield nodes


def _root(levels) -> np.ndarray:
    """The (M, L) coefficients of the root, the last of ``levels``: a list,
    or ``_tree``'s generator, which then holds two levels at a time."""
    for root in levels:
        pass
    size = _size(root)
    return root[:, 0, size - 1 : 2 * size - 1]


def _point_masses(levels: list[np.ndarray], lo: np.ndarray, hi: np.ndarray,
                  log_space: bool) -> tuple[np.ndarray, np.ndarray]:
    """(M, N_0) P(S_{-i} = lo - 1) and P(S_{-i} = hi) of each leaf i, per
    class row, or their logs, from the tree ``_tree`` built.

    The root's coefficient c is a linear functional g of each node's
    coefficients, the rest of the tree held fixed: g[k] is the mass of count
    c - k over the items outside the node.  Below the root, that is the
    sibling read backwards from c.  Further down, a child's g is its
    parent's correlated with its sibling,

        g_child[k] = sum_t g_parent[k + t] sibling[t],

    one window product per level for both children of every pair, both
    points (c = lo and c = hi) and all class rows.  At leaf i, g[0] is
    P(S_{-i} = c) and g[1] is P(S_{-i} = c - 1), which is 0 at c = 0; the
    last level computes only those two.
    """
    m = len(lo)
    sizes = [_size(level) for level in levels]
    # a level's functionals are padded to the width its children's windows read
    widths = [2] + [2 * size - 1 for size in sizes[:-1]]
    # storage index of sibling coefficient c - k, zero pads included (c <= 2L - 2)
    reads = sizes[-2] - 1 + np.stack((lo, hi))[:, :, None, None] - np.arange(sizes[-2])
    g = _blank((2, m, 2, widths[-2]), log_space)
    g[..., : sizes[-2]] = levels[-2][np.arange(m)[:, None, None], [[1], [0]], reads]
    if len(levels) == 2:  # the leaves are the root's children
        return g[0, :, :, 1], g[1, :, :, 0]
    for nodes, size, width in zip(levels[-3:0:-1], sizes[-3:0:-1], widths[-3:0:-1]):
        (_, n, stored), (row, node, _) = nodes.shape, nodes.strides
        pairs = n // 2
        windows = _view(g, 0, (2, m, pairs, 1, size, size), (*g.strides[:3], 0, 8, 8))
        # the sibling of child c of pair a is node 2a + 1 - c
        siblings = _view(nodes, stored + size - 1, (m, pairs, 2, size, 1),
                         (row, 2 * node, -node, 8, 8))
        g = _blank((2, m, n, width), log_space)
        (funcs, row, node, _) = g.strides
        children = _view(g, 0, (2, m, pairs, 2, size, 1), (funcs, row, 2 * node, node, 8, 8))
        _window_dot(windows, siblings, children, log_space)
    # the leaves need g[1] at lo and g[0] at hi only: one two-term window each,
    # against both siblings of a pair at once
    (_, n, stored), (row, node, _) = levels[0].shape, levels[0].strides
    pairs = n // 2
    siblings = _view(levels[0], stored + 1, (m, pairs, 2, 2), (row, 2 * node, -node, 8))
    ends = _view(g, 1, (2, m, pairs, 2, 1), (g.strides[0] - 8, *g.strides[1:3], 8, 8))
    masses = np.empty((2, m, n))
    _window_dot(siblings, ends, masses.reshape(2, m, pairs, 2, 1), log_space)
    return masses[0], masses[1]


def count_log_pmf(log_p: np.ndarray) -> np.ndarray:
    """Log-pmf of the sum of independent Bernoullis with log-probs ``log_p``.

    Entry k of the (n + 1,) result is log P(count == k), the root of the
    log-space product tree: O(n) memory, O(n^2) time.
    """
    log_p = np.asarray(log_p, dtype=np.float64)
    n = len(log_p)
    return _root(_tree(_leaves(log_p[None], True), n, True))[0, : n + 1]


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
    top >= hi, as the tree's root stops at max(hi).  ``lo`` and ``hi`` are
    integers, scalars or one per row; a bound of any other type, bool and
    float included, is refused.  ``logsumexp`` ignores the masked counts,
    so a cut row and the full (n + 1,) pmf give the same bits.
    """
    log_pmf = np.asarray(log_pmf, dtype=np.float64)
    lo, hi = np.broadcast_arrays(lo, hi)
    for bound in (lo, hi):
        if not np.issubdtype(bound.dtype, np.integer):
            raise ValueError(f"count bounds must be integers, got {bound.dtype}")
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
    log_space: bool = False  # the batch fell back to the log-space tree


def _batch_inputs(probs: np.ndarray, lo, hi) -> tuple:
    """Validated (n, m) probabilities and the (m,) lo and hi."""
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
    return probs, lo, hi


def _class_rows(probs: np.ndarray, log_space: bool) -> np.ndarray:
    """The (n, m) ``probs`` as (m, n) class rows, or their logs in log space."""
    x = probs.T
    if log_space:
        with np.errstate(divide="ignore"):
            x = np.log(x)
    return x


def _root_interval(levels, lo: np.ndarray, hi: np.ndarray, log_space: bool) -> np.ndarray:
    """Interval log-probabilities of the root of ``levels``, from
    ``interval_log_prob``'s sum without its checks (``_batch_inputs`` made
    them).  A probability-space root reaches that sum through ``np.log``:
    zeros become ``-inf``, which it ignores."""
    root = _root(levels)
    if not log_space:
        with np.errstate(divide="ignore", invalid="ignore"):
            root = np.log(root)
    return _interval_sum(root, lo, hi)


def _keeps_prob_space(p: np.ndarray, log_in: np.ndarray) -> bool:
    """Whether every input is in [0, 1] and every interval log-probability at
    or above ``MIN_PROB_SPACE_LOG`` (a nan is neither).  A batch that fails
    runs in log space, which refuses p > 1 and carries a nan through."""
    return bool(((p >= 0.0) & (p <= 1.0)).all() and (log_in >= MIN_PROB_SPACE_LOG).all())


def _loss_terms(log_q: np.ndarray) -> tuple[float, np.ndarray, bool]:
    """Loss value, the clamped per-class log q and the saturation flag.

    Roundoff can push log q a hair above 0; it is clamped there so no
    per-class term goes negative.  It is also clamped at ``MIN_LOG_PROB``,
    which raises ``saturated``.
    """
    log_q = np.minimum(log_q, 0.0)
    saturated = bool(np.any(log_q < MIN_LOG_PROB))
    log_q = np.maximum(log_q, MIN_LOG_PROB)
    # summed class by class, left to right, so the value depends neither on
    # numpy's reduction strategy for m nor on the Python version (sum() of
    # floats is compensated from 3.12 on)
    total = 0.0
    for log_qj in log_q.tolist():
        total -= log_qj
    return total, log_q, saturated


def _count_tree(p: np.ndarray, lo: np.ndarray, hi: np.ndarray, keep_levels: bool) -> tuple:
    """(levels, interval log-probabilities, log_space) of the tree over the
    batch's class rows: in probability space, unless the batch fails
    ``_keeps_prob_space`` and runs again in log space.  ``keep_levels`` keeps
    every level in a list, for the pass down; otherwise the tree holds two
    levels at a time and the returned ``levels`` are spent."""
    for log_space in (False, True):
        levels = _tree(_leaves(_class_rows(p, log_space), log_space), int(hi.max()), log_space)
        if keep_levels:
            levels = list(levels)
        log_in = _root_interval(levels, lo, hi, log_space)
        if log_space or _keeps_prob_space(p, log_in):
            return levels, log_in, log_space


def count_loss(batch_probs: np.ndarray, lo, hi) -> CountLossResult:
    """Count objective and its exact gradient w.r.t. the prediction matrix.

    Per class j the batch column is treated as independent Bernoulli
    probabilities, and q_j = P(lo[j] <= count_j <= hi[j]) comes out of the
    product tree.  The objective is the negative log-likelihood of the
    intervals, -sum_j log q_j, the differentiable count loss of Shukla et
    al. (NeurIPS 2023).  Each log q_j is clamped at ``MIN_LOG_PROB``: a q_j
    below it raises the ``saturated`` flag instead of returning +inf.

    All m classes run through one tree, in probability space unless the
    batch falls back to log space (``_keeps_prob_space``).  Conditioning q
    on item i, the interval sums telescope,

        dq/dp_i = P(S_{-i} = lo - 1) - P(S_{-i} = hi),

    and both masses come from one pass down the tree (``_point_masses``).
    """
    p, lo, hi = _batch_inputs(batch_probs, lo, hi)
    levels, log_in, log_space = _count_tree(p, lo, hi, keep_levels=True)
    total, log_q, saturated = _loss_terms(log_in)
    n = len(p)
    up, down = (mass[:, :n] for mass in _point_masses(levels, lo, hi, log_space))
    grad = np.empty((n, len(lo)))
    # d loss / d p_ij = -(dq_j / dp_ij) / q_j
    if log_space:
        np.subtract(np.exp(down - log_q[:, None]), np.exp(up - log_q[:, None]), out=grad.T)
    else:
        np.divide(down - up, np.exp(log_q)[:, None], out=grad.T)
    return CountLossResult(loss=total, grad=grad, saturated=saturated, log_space=log_space)


def count_loss_value(batch_probs: np.ndarray, lo, hi) -> float:
    """``count_loss(batch_probs, lo, hi).loss``, bit for bit, without the
    gradient: no pass down the tree, which holds two levels at a time.  Used
    where the count loss is only reported (lambda = 0)."""
    p, lo, hi = _batch_inputs(batch_probs, lo, hi)
    return _loss_terms(_count_tree(p, lo, hi, keep_levels=False)[1])[0]
