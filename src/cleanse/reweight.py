"""Exact k-NN search, enhanced-label selection, and soft-target weights.

A partial sample's most reliable candidate is picked by looking at its
nearest neighbors: a clean neighbor whose label is still a candidate wins
outright, otherwise the neighbors vote within the candidate set.  The chosen
label then gets temperature weight T in the row of the soft-target matrix
while the remaining candidates keep weight 1, and the row is normalized.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

# Returned by enhanced_labels when no neighbor label intersects the
# candidate set; the weight row falls back to uniform over candidates.
NO_ENHANCEMENT = -1

# neighbour-vote modes of enhanced_labels; the first is the default
VOTE_MODES = ("fractional", "multiset")
# fractional votes run in int64 while k * lcm(set sizes) is below this
_INT64_VOTE_LIMIT = 2**63

# elements per (rows, p) GEMM block
_CHUNK_ELEMENTS = 1_000_000
# elements per (pairs, d) re-rank difference block, a cache-sized 256 KiB
# temporary: on 64 x 784 batches 16k-32k ran fastest and 1M a third slower
_RERANK_ELEMENTS = 32_768


@dataclass(frozen=True)
class NeighborList:
    """Neighbours nearest first, each query itself excluded.

    ``knn_search`` returns one with (p, k) ``indices`` and ``distances``;
    indexing it by row gives that query's (k,) list, and ``len`` and
    iteration go by rows.
    """

    indices: np.ndarray
    distances: np.ndarray

    def __len__(self) -> int:
        return len(self.indices)

    def __getitem__(self, row) -> NeighborList:
        return NeighborList(self.indices[row], self.distances[row])

    def __iter__(self):
        return (self[r] for r in range(len(self)))


def knn_search(features: np.ndarray, k: int, threads: int = 1) -> NeighborList:
    """Exact Euclidean k nearest neighbors of every row among all rows.

    Returns (p, k) neighbour indices and distances.  Self-matches are
    excluded and equal distances are broken by the lower instance index
    (stable sort on squared distances).  When k >= p the neighbor count is
    clamped to p - 1 without a notice: that is a statistic of the run, not
    an error, and the caller reports it.  ``threads`` splits the query rows
    over a thread pool with fixed block boundaries, so results are bitwise
    identical for any thread count.

    A GEMM on mean-centred features picks each row's points within a roundoff
    bound of its k-th estimate (all points, if one is not finite); direct
    differences re-rank them, so results equal a full stable sort bit for bit.
    """
    X = np.ascontiguousarray(np.asarray(features, dtype=np.float64))
    if X.ndim != 2:
        raise ValueError("features must be a 2-D matrix")
    p, d = X.shape
    if p < 2:
        raise ValueError("knn_search requires at least 2 instances")
    if k < 1:
        raise ValueError("k must be >= 1")
    kk = min(k, p - 1)

    C = X - X.mean(axis=0)
    sq = np.sum(C * C, axis=1)
    # margin[q] bounds |estimate - direct d2| for query q about twice over: the
    # rounding of centring, norms, GEMM and direct sum, and (`tiny`) subnormals.
    fp = np.finfo(np.float64)
    margin = 8.0 * (d + 4) * fp.eps * (sq + sq.max() + fp.tiny)
    block = max(1, _CHUNK_ELEMENTS // p)
    pairs = max(1, _RERANK_ELEMENTS // d)

    def work(start: int) -> tuple[np.ndarray, np.ndarray]:
        rows = slice(start, min(start + block, p))
        est = sq[rows, None] + sq - 2.0 * (C[rows] @ C.T)
        finite = np.isfinite(est).all(axis=1)
        np.fill_diagonal(est[:, start:], np.inf)  # exclude self
        # the k-th direct d2 is at most kth + margin: 2 margins keep its ties
        bound = np.partition(est, kk - 1, axis=1)[:, kk - 1] + 2.0 * margin[rows]
        band = (est <= bound[:, None]) | ~(finite & np.isfinite(bound))[:, None]
        np.fill_diagonal(band[:, start:], False)
        local, cols = np.nonzero(band)  # row-major: each band in index order
        d2 = np.empty(len(cols))
        for s in range(0, len(cols), pairs):
            diff = X[start + local[s : s + pairs]]
            diff -= X[cols[s : s + pairs]]
            np.sum(np.square(diff, out=diff), axis=1, out=d2[s : s + pairs])
        order = np.lexsort((d2, local))  # stable: ties keep index order
        pick = order[np.searchsorted(local, np.arange(len(est)))[:, None] + np.arange(kk)]
        return cols[pick], np.sqrt(d2[pick])

    if threads > 1:
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


def enhanced_labels(own, neighbour_masks, distances, vote_mode: str = "fractional") -> np.ndarray:
    """Most reliable candidate of each of n rows, or NO_ENHANCEMENT.

    ``own`` is the rows' (n, m) candidate mask, ``neighbour_masks`` the
    (n, k, m) masks of each row's neighbours, nearest first, and
    ``distances`` their (n, k) distances.  Returns (n,) int64 labels.
    Cases, in order, for each row:

    1. the row is clean: its sole candidate, neighbors ignored.
    2. the nearest clean neighbor whose label is one of the row's
       candidates supplies that label directly.
    3. neighbors vote over the row's candidates.  A neighbor contributes
       each of its candidate labels with weight 1/|its set|
       (``fractional``) or 1 (``multiset``); clean neighbors therefore cast
       a full vote for their label either way.  Ties go to the label whose
       nearest contributing neighbor is closest, then to the lowest class
       index.  If no neighbor label lands in the row's candidate set the
       sentinel is returned.
    """
    if vote_mode not in VOTE_MODES:
        raise ValueError(f"unknown vote mode {vote_mode!r}")
    own = np.asarray(own, dtype=bool)
    masks = np.asarray(neighbour_masks, dtype=bool)
    distances = np.asarray(distances, dtype=np.float64)
    if not (masks.ndim == 3 and own.shape == (len(masks), masks.shape[2])
            and distances.shape == masks.shape[:2]):
        raise ValueError(f"shapes {own.shape}, {masks.shape} and {distances.shape} "
                         "are not (n, m), (n, k, m) and (n, k)")
    n, k, m = masks.shape
    clean = own.sum(axis=1) == 1
    if k == 0:
        if not clean.all():
            raise ValueError("enhanced_labels requires a nonempty neighbor list")
        return own.argmax(axis=1)

    hits = masks & own[:, None, :]  # neighbour labels that are the row's candidates
    sizes = masks.sum(axis=2)
    # Integer votes, every row's scaled by the same L, keep each ordering and
    # each tie exact.  Python ints take over where k * L might overflow int64
    # (lcm(1..43) > 2^63).
    if vote_mode == "fractional":
        present = np.zeros(m + 1, dtype=bool)
        present[sizes] = True
        if present[0]:
            raise ValueError("every neighbor needs at least one candidate")
        scale = math.lcm(*np.flatnonzero(present).tolist())
        weights = scale // (sizes if k * scale < _INT64_VOTE_LIMIT else sizes.astype(object))
    else:
        weights = np.ones_like(sizes)
    votes = (weights[:, None, :] @ hits)[:, 0]
    top = votes.max(axis=1, keepdims=True)
    tied = (votes == top) & (votes > 0)
    # distance of each label's first (nearest) contributing neighbour
    nearest = np.take_along_axis(distances, hits.argmax(axis=1), axis=1)
    nearest = np.where(tied, nearest, np.inf)
    best = tied & (nearest == nearest.min(axis=1, keepdims=True))
    labels = np.where(top[:, 0] > 0, best.argmax(axis=1), NO_ENHANCEMENT)

    clean_hits = (sizes == 1) & hits.any(axis=2)
    first = clean_hits.argmax(axis=1)
    labels = np.where(clean_hits.any(axis=1), hits[np.arange(n), first].argmax(axis=1), labels)
    return np.where(clean, own.argmax(axis=1), labels)


def enhanced_label(
    i: int, dataset, neighbors: NeighborList, vote_mode: str = "fractional"
) -> int:
    """``enhanced_labels`` for row i of ``dataset`` and its (k,) neighbours."""
    cands = dataset.candidates
    return int(enhanced_labels(cands[i : i + 1], cands[neighbors.indices][None],
                               neighbors.distances[None], vote_mode)[0])


def build_weight_matrix(candidates, enhanced, temperature: float) -> np.ndarray:
    """Soft-target rows: 0 off-candidates, T on the enhanced label, 1 elsewhere.

    ``candidates`` is the (n, m) bool mask.  Returns the (n, m) float64
    matrix with each row divided by its sum, so rows are stochastic with
    support equal to the candidate set: a clean sample is one-hot and a
    sentinel-enhanced row is uniform over its candidates.
    """
    if temperature < 1.0:
        raise ValueError("temperature must be >= 1")
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
