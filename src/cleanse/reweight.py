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

# Returned by enhanced_label when no neighbor label intersects the
# candidate set; the weight row falls back to uniform over candidates.
NO_ENHANCEMENT = -1

# neighbour-vote modes of enhanced_label; the first is the default
VOTE_MODES = ("fractional", "multiset")

# elements per (rows, p) GEMM block
_CHUNK_ELEMENTS = 1_000_000
# elements per (pairs, d) re-rank difference block, a cache-sized 256 KiB
# temporary: on 64 x 784 batches 16k-32k ran fastest and 1M a third slower
_RERANK_ELEMENTS = 32_768


@dataclass(frozen=True)
class NeighborList:
    """Neighbors of one query, nearest first, with the query itself excluded."""

    indices: np.ndarray
    distances: np.ndarray

    def __len__(self) -> int:
        return len(self.indices)


def knn_search(features: np.ndarray, k: int, threads: int = 1) -> list[NeighborList]:
    """Exact Euclidean k nearest neighbors of every row among all rows.

    Self-matches are excluded and equal distances are broken by the lower
    instance index (stable sort on squared distances).  When k >= p the
    neighbor count is clamped to p - 1 without a notice: that is a statistic
    of the run, not an error, and the caller reports it.  ``threads`` splits
    the query rows over a thread pool with fixed block boundaries, so results
    are bitwise identical for any thread count.

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

    def work(start: int) -> list[NeighborList]:
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
        return [NeighborList(i, dist) for i, dist in zip(cols[pick], np.sqrt(d2[pick]))]

    if threads > 1:
        errstate = np.geterr()  # pool threads start from numpy's default

        def task(start: int) -> list[NeighborList]:
            with np.errstate(**errstate):
                return work(start)

        with ThreadPoolExecutor(max_workers=threads) as pool:
            blocks = list(pool.map(task, range(0, p, block)))
    else:
        blocks = [work(start) for start in range(0, p, block)]
    return [nb for part in blocks for nb in part]


def enhanced_label(
    i: int, dataset, neighbors: NeighborList, vote_mode: str = "fractional"
) -> int:
    """Most reliable candidate of instance i, or NO_ENHANCEMENT.

    Cases, in order:

    1. i is clean: its sole candidate, neighbors ignored.
    2. the nearest clean neighbor whose label is one of i's candidates
       supplies that label directly.
    3. neighbors vote over i's candidates.  A neighbor contributes each of
       its candidate labels with weight 1/|its set| (``fractional``) or 1
       (``multiset``); clean neighbors therefore cast a full vote for their
       label either way.  Ties go to the label whose nearest contributing
       neighbor is closest, then to the lowest class index.  If no neighbor
       label lands in i's candidate set the sentinel is returned.
    """
    if vote_mode not in VOTE_MODES:
        raise ValueError(f"unknown vote mode {vote_mode!r}")
    own = dataset.candidates[i].tolist()
    labs = [j for j, mine in enumerate(own) if mine]
    if len(labs) == 1:
        return labs[0]
    if len(neighbors) == 0:
        raise ValueError("enhanced_label requires a nonempty neighbor list")

    rows = dataset.candidates[neighbors.indices].tolist()
    sizes = [row.count(True) for row in rows]
    for size, row in zip(sizes, rows):
        if size == 1 and own[row.index(True)]:
            return row.index(True)

    # Integer votes on a common denominator keep totals exact, so vote ties
    # (and the tie-break rules) are exact too; Python ints never overflow,
    # whatever the lcm of the set sizes (lcm(1..43) > 2^63).
    if vote_mode == "fractional":
        scale = math.lcm(*set(sizes))
        weights = [scale // size for size in sizes]
    else:
        weights = [1] * len(sizes)
    votes = dict.fromkeys(labs, 0)
    nearest = {}  # label -> its nearest voter; neighbors arrive nearest-first
    for t in range(len(rows) - 1, -1, -1):
        row = rows[t]
        for j in labs:
            if row[j]:
                votes[j] += weights[t]
                nearest[j] = t
    if not nearest:
        return NO_ENHANCEMENT
    dist = neighbors.distances.tolist()
    return min(nearest, key=lambda j: (-votes[j], dist[nearest[j]], j))


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
