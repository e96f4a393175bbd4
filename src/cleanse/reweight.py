"""Exact k-NN search, enhanced-label selection, and soft-target weights.

A partial sample's most reliable candidate is picked by looking at its
nearest neighbors: a clean neighbor whose label is still a candidate wins
outright, otherwise the neighbors vote within the candidate set.  The chosen
label then gets temperature weight T in the row of the soft-target matrix
while the remaining candidates keep weight 1, and the row is normalized.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Returned by enhanced_labels when no neighbor label intersects the
# candidate set; the weight row falls back to uniform over candidates.
NO_ENHANCEMENT = -1

# votes run in int64 while k * lcm(set sizes) is below this
_INT64_VOTE_LIMIT = 2**63

# query rows per (rows, p) estimate block: 128 (for GEMM efficiency) while
# that stays within 10^6 float64 elements, and one at least
_BLOCK_ROWS = 128
_MAX_BLOCK_ELEMENTS = 1_000_000
# elements per (pairs, d) re-rank difference block, a cache-sized 256 KiB
# temporary: on 64 x 784 batches 16k-32k ran fastest and 1M a third slower.
# The squared norms are summed in (rows, d) blocks of the same size.
_RERANK_ELEMENTS = 32_768
# features from which a band pair whose mirror is banded in the same query
# block copies its mirror's d2.  Below, a difference row costs less than the
# bookkeeping that finds the mirror: on 64-row Gaussian batches (k = 10) the
# copies took 1.02x the time of differencing every pair at d = 128, 0.98x at
# 256 and 0.92x at 784
_MIRROR_MIN_FEATURES = 256


@dataclass(frozen=True)
class NeighborList:
    """Neighbours nearest first, each query itself excluded.

    ``knn_search`` returns one with (p, k) ``indices`` and ``distances``;
    indexing it by row gives that query's (k,) list.
    """

    indices: np.ndarray
    distances: np.ndarray

    def __getitem__(self, row) -> NeighborList:
        return NeighborList(self.indices[row], self.distances[row])


def _block_rows(p: int) -> int:
    """Query rows per (rows, p) estimate block of a search over p points."""
    return max(min(_BLOCK_ROWS, _MAX_BLOCK_ELEMENTS // p), 1)


def _pair_distances(X: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Squared distances |X[a_i] - X[b_i]|^2 by direct differences, summed
    over one cache-sized (pairs, d) block of difference rows at a time."""
    d2 = np.empty(len(a))
    step = max(1, _RERANK_ELEMENTS // X.shape[1])
    for s in range(0, len(a), step):
        diff = X.take(a[s : s + step], axis=0)  # take: 10x X[a]'s speed at d=2
        diff -= X.take(b[s : s + step], axis=0)
        np.sum(np.square(diff, out=diff), axis=1, out=d2[s : s + step])
    return d2


def knn_search(features: np.ndarray, k: int, threads: int = 1) -> NeighborList:
    """Exact Euclidean k nearest neighbors of every row among all rows.

    Returns (p, k) neighbour indices and distances.  Self-matches are
    excluded and equal distances are broken by the lower instance index
    (stable sort on squared distances).  When k >= p the neighbor count is
    clamped to p - 1 without a notice: that is a statistic of the run, not
    an error, and the caller reports it; a k or ``threads`` that is not an
    integer >= 1 (bool included), and features with no column, are refused.
    ``threads`` splits the query rows over a thread pool with fixed block
    boundaries, so results are bitwise identical for any thread count.

    A GEMM on mean-centred features C picks each row's points within a
    roundoff bound of its k-th estimate; direct differences re-rank them, so
    results equal a full stable sort bit for bit.  Query q's estimate of
    point j is est_j = sq_j - 2 C_q.C_j: the squared distance d2_j less the
    row constant sq_q, which reorders nothing.  margin[q] bounds
    |est_j - (d2_j - sq_q)| about twice over: the rounding of centring,
    norms, GEMM, subtraction and direct sum, and (`tiny`) subnormals.
    Leaving sq_q out removes one rounding and no term of that bound.  So the
    k-th estimate is at least the k-th d2 - sq_q less one margin, and every
    point whose d2 is at most the k-th d2 has est_j <= k-th estimate + 2
    margins: the band keeps each neighbour and each tie of the k-th.  By
    Cauchy-Schwarz |C_q.C_j| <= max(sq), so |est_j| <= 3 max(sq) and every
    estimate is finite when 4 max(sq) is; otherwise every point joins every
    band.  From _MIRROR_MIN_FEATURES features on, a pair whose mirror is
    banded in the same query block is differenced once: x_a - x_b and
    x_b - x_a square to the same bits.
    """
    X = np.ascontiguousarray(np.asarray(features, dtype=np.float64))
    if X.ndim != 2:
        raise ValueError("features must be a 2-D matrix")
    p, d = X.shape
    if p < 2:
        raise ValueError("knn_search requires at least 2 instances")
    if d < 1:
        raise ValueError("knn_search requires at least 1 feature column")
    for name, value in (("k", k), ("threads", threads)):
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
            raise ValueError(f"{name} must be an integer, got {value!r}")
        if value < 1:
            raise ValueError(f"{name} must be >= 1")
    kk = min(k, p - 1)

    C = X - X.mean(axis=0)
    # row sums of squares in blocks, with np.sum(C * C, axis=1)'s bits but
    # without its (p, d) temporary, which set the heap's peak on 64 x 784
    # batches
    step = max(1, _RERANK_ELEMENTS // d)
    sq = np.concatenate([np.sum(np.square(C[s : s + step]), axis=1) for s in range(0, p, step)])
    fp = np.finfo(np.float64)
    finite = bool(np.isfinite(sq).all() and 4.0 * sq.max() < fp.max)
    margin = 8.0 * (d + 4) * fp.eps * (sq + sq.max() + fp.tiny)
    block = _block_rows(p)

    def work(start: int) -> tuple[np.ndarray, np.ndarray]:
        rows = slice(start, min(start + block, p))
        if finite:
            est = C[rows] @ C.T
            est *= -2.0
            est += sq
            np.fill_diagonal(est[:, start:], np.inf)  # exclude self
            # a new bound array frees the partitioned copy before the compare
            bound = np.partition(est, kk - 1, axis=1)[:, kk - 1] + 2.0 * margin[rows]
            band = est <= bound[:, None]
        else:
            band = np.ones((rows.stop - start, p), dtype=bool)
            np.fill_diagonal(band[:, start:], False)
        flat = np.flatnonzero(band)  # each band in index order
        local, cols = np.divmod(flat, p)
        queries = local + start
        if d < _MIRROR_MIN_FEATURES:
            d2 = _pair_distances(X, queries, cols)
        else:
            # pairs (q, j) whose mirror (j, q) is banded too: the one with
            # q > j copies the d2 of its mirror, which is differenced
            mirrored = np.flatnonzero((cols >= start) & (cols < queries))
            twin = (cols[mirrored] - start) * p + queries[mirrored]  # the mirror's flat index
            banded = band.ravel()[twin]
            mirrored, twin = mirrored[banded], twin[banded]
            direct = np.ones(len(flat), dtype=bool)
            direct[mirrored] = False
            d2 = np.empty(len(flat))
            d2[direct] = _pair_distances(X, queries[direct], cols[direct])
            d2[mirrored] = d2[np.searchsorted(flat, twin)]
        order = np.lexsort((d2, local))  # stable: ties keep index order
        pick = order[np.searchsorted(local, np.arange(len(band)))[:, None] + np.arange(kk)]
        return cols[pick], np.sqrt(d2[pick])

    if threads > 1:
        from concurrent.futures import ThreadPoolExecutor

        errstate = np.geterr()  # pool threads start from numpy's default

        def task(start: int) -> tuple[np.ndarray, np.ndarray]:
            with np.errstate(**errstate):
                return work(start)

        with ThreadPoolExecutor(max_workers=threads) as pool:
            blocks = list(pool.map(task, range(0, p, block)))
    else:
        blocks = [work(start) for start in range(0, p, block)]
    indices, distances = zip(*blocks)
    return NeighborList(np.concatenate(indices), np.concatenate(distances))


def enhanced_labels(own, neighbour_masks, distances) -> np.ndarray:
    """Most reliable candidate of each of n rows, or NO_ENHANCEMENT.

    ``own`` is the rows' (n, m) candidate mask, ``neighbour_masks`` the
    (n, k, m) masks of each row's neighbours, nearest first, and
    ``distances`` their (n, k) distances.  Returns (n,) int64 labels.
    Cases, in order, for each row:

    1. the row is clean: its sole candidate, neighbors ignored.
    2. the nearest clean neighbor whose label is one of the row's
       candidates supplies that label directly.
    3. neighbors vote over the row's candidates.  A neighbor contributes
       each of its candidate labels with weight 1/|its set|, so a clean
       neighbor casts a full vote for its label and a large set spreads one
       vote thin.  Ties go to the label whose nearest contributing neighbor
       is closest (a nan distance ranking after every number), then to the
       lowest class index.  If no neighbor label lands in the row's
       candidate set the sentinel is returned.
    """
    own = np.asarray(own, dtype=bool)
    masks = np.asarray(neighbour_masks, dtype=bool)
    distances = np.asarray(distances, dtype=np.float64)
    if not (masks.ndim == 3 and own.shape == (len(masks), masks.shape[2])
            and distances.shape == masks.shape[:2]):
        raise ValueError(f"shapes {own.shape}, {masks.shape} and {distances.shape} "
                         "are not (n, m), (n, k, m) and (n, k)")
    n, k, m = masks.shape
    clean = np.einsum("nm->n", own, dtype=np.int64) == 1
    if k == 0:
        if not clean.all():
            raise ValueError("enhanced_labels requires a nonempty neighbor list")
        return own.argmax(axis=1)

    hits = masks & own[:, None, :]  # neighbour labels that are the row's candidates
    # einsum: about half the time of sum(axis=2) on (64, 10, 10) bool masks
    sizes = np.einsum("nkm->nk", masks, dtype=np.int64)
    # Integer votes, every row's scaled by the same L, keep each ordering and
    # each tie exact.  Python ints take over where k * L might overflow int64
    # (lcm(1..43) > 2^63).
    present = np.zeros(m + 1, dtype=bool)
    present[sizes] = True
    if present[0]:
        raise ValueError("every neighbor needs at least one candidate")
    counts = np.flatnonzero(present)
    scale = math.lcm(*counts.tolist())
    # each neighbour's weight L // |its set|, looked up by set size
    per_size = np.zeros(m + 1, dtype=np.int64 if k * scale < _INT64_VOTE_LIMIT else object)
    per_size[counts] = [scale // c for c in counts.tolist()]
    weights = per_size[sizes]
    votes = (weights[:, None, :] @ hits)[:, 0]
    top = votes.max(axis=1, keepdims=True)
    tied = (votes == top) & (votes > 0)
    # distance of each label's first (nearest) contributing neighbour; fmin
    # skips nan, so a nan ranks after every number, as in knn_search's lexsort
    rows = np.arange(n)
    nearest = distances[rows[:, None], hits.argmax(axis=1)]
    nearest = np.where(tied, nearest, np.nan)
    low = np.fmin.reduce(nearest, axis=1, keepdims=True)
    best = tied & ((nearest == low) | np.isnan(low))
    labels = np.where(top[:, 0] > 0, best.argmax(axis=1), NO_ENHANCEMENT)

    clean_hits = (sizes == 1) & hits.any(axis=2)
    first = clean_hits.argmax(axis=1)
    labels = np.where(clean_hits.any(axis=1), hits[rows, first].argmax(axis=1), labels)
    return np.where(clean, own.argmax(axis=1), labels)


def enhanced_label(i: int, dataset, neighbors: NeighborList) -> int:
    """``enhanced_labels`` for row i of ``dataset`` and its (k,) neighbours."""
    cands = dataset.candidates
    return int(enhanced_labels(cands[i : i + 1], cands[neighbors.indices][None],
                               neighbors.distances[None])[0])


def build_weight_matrix(candidates, enhanced, temperature: float) -> np.ndarray:
    """Soft-target rows: 0 off-candidates, T on the enhanced label, 1 elsewhere.

    ``candidates`` is the (n, m) bool mask.  Returns the (n, m) float64
    matrix with each row divided by its sum, so rows are stochastic with
    support equal to the candidate set: a clean sample is one-hot and a
    sentinel-enhanced row is uniform over its candidates.
    """
    if not 1.0 <= temperature < math.inf:  # nan fails both comparisons
        raise ValueError(f"temperature must be finite and >= 1, got {temperature!r}")
    n, m = candidates.shape
    if len(enhanced) != n:
        raise ValueError("one enhanced label per instance required")
    enhanced = np.asarray(enhanced, dtype=np.int64)
    rows = np.flatnonzero(enhanced != NO_ENHANCEMENT)
    cols = enhanced[rows]
    inside = (cols >= 0) & (cols < m)
    inside[inside] = candidates[rows[inside], cols[inside]]
    if not inside.all():
        i = rows[np.argmin(inside)]
        raise ValueError(f"enhanced label {enhanced[i]} outside candidate set of row {i}")
    weights = candidates.astype(np.float64)
    weights[rows, cols] = temperature
    weights /= weights.sum(axis=1, keepdims=True)
    return weights
