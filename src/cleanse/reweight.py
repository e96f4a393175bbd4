"""Exact k-NN search, enhanced-label selection, and soft-target weights.

A partial sample's most reliable candidate is picked by looking at its
nearest neighbors: a clean neighbor whose label is still a candidate wins
outright, otherwise the neighbors vote within the candidate set.  The chosen
label then gets temperature weight T in the row of the soft-target matrix
while the remaining candidates keep weight 1, and the row is normalized.
"""

from __future__ import annotations

import logging
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

logger = logging.getLogger(__name__)

# Returned by enhanced_label when no neighbor label intersects the
# candidate set; the weight row falls back to uniform over candidates.
NO_ENHANCEMENT = -1

# knn_search switches from materializing (query, point, dim) difference
# tensors to the GEMM expansion above this point count; selection and tie
# rules are unchanged.
_DIRECT_DIFF_MAX_POINTS = 4096
_CHUNK_ELEMENTS = 4_000_000


@dataclass(frozen=True)
class NeighborList:
    """Neighbors of one query, nearest first, with the query itself excluded."""

    indices: np.ndarray
    distances: np.ndarray

    def __len__(self) -> int:
        return len(self.indices)


@dataclass(frozen=True)
class WeightMatrix:
    """Row-stochastic soft targets; support equals each row's candidate set."""

    weights: np.ndarray  # n x m, rows sum to 1
    temperature: float


def _chunk_rows(p: int, d: int) -> int:
    return max(1, _CHUNK_ELEMENTS // max(1, p * d))


def _d2_block(X: np.ndarray, rows: np.ndarray, sq_norms: np.ndarray | None) -> np.ndarray:
    if sq_norms is None:
        diff = X[rows][:, None, :] - X[None, :, :]
        return np.sum(diff * diff, axis=2)
    # ||a-b||^2 = ||a||^2 + ||b||^2 - 2 a.b, clipped against roundoff
    cross = X[rows] @ X.T
    d2 = sq_norms[rows][:, None] + sq_norms[None, :] - 2.0 * cross
    np.maximum(d2, 0.0, out=d2)
    return d2


def knn_search(features: np.ndarray, k: int, threads: int = 1) -> list[NeighborList]:
    """Exact Euclidean k nearest neighbors of every row among all rows.

    Self-matches are excluded and equal distances are broken by the lower
    instance index (stable sort on squared distances).  When k >= p the
    neighbor count is clamped to p - 1 and a warning is logged; that is a
    statistic of the run, not an error.  ``threads`` splits the query rows
    over a thread pool with fixed chunk boundaries, so results are bitwise
    identical for any thread count.
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
    if kk < k:
        logger.warning("knn_search: k=%d clamped to %d (only %d instances)", k, kk, p)

    sq_norms = None
    if p > _DIRECT_DIFF_MAX_POINTS:
        sq_norms = np.sum(X * X, axis=1)

    out: list[NeighborList | None] = [None] * p
    chunk = _chunk_rows(p, d)
    starts = range(0, p, chunk)

    def work(start: int) -> None:
        rows = np.arange(start, min(start + chunk, p))
        d2 = _d2_block(X, rows, sq_norms)
        d2[np.arange(len(rows)), rows] = np.inf  # exclude self
        order = np.argsort(d2, axis=1, kind="stable")[:, :kk]
        dist = np.sqrt(np.take_along_axis(d2, order, axis=1))
        for local, r in enumerate(rows):
            out[r] = NeighborList(indices=order[local].copy(), distances=dist[local].copy())

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(work, starts))
    else:
        for start in starts:
            work(start)
    return out  # type: ignore[return-value]


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
    if vote_mode not in ("fractional", "multiset"):
        raise ValueError(f"unknown vote mode {vote_mode!r}")
    ci = dataset.candidates[i]
    own = np.flatnonzero(ci)
    if own.size == 1:
        return int(own[0])
    if len(neighbors) == 0:
        raise ValueError("enhanced_label requires a nonempty neighbor list")

    cands = dataset.candidates[neighbors.indices]
    sizes = cands.sum(axis=1)
    hits = cands & ci  # neighbor labels that are also i's candidates
    clean_hits = np.flatnonzero((sizes == 1) & hits.any(axis=1))
    if clean_hits.size:
        return int(np.argmax(hits[clean_hits[0]]))

    # Integer votes on a common denominator keep totals exact, so vote ties
    # (and the tie-break rules) are exact too.  The lcm of the set sizes
    # can exceed int64 (lcm(1..43) > 2^63); Python ints take over there.
    if vote_mode == "multiset":
        w = np.ones_like(sizes)
    else:
        scale = math.lcm(*set(sizes.tolist()))
        if scale * len(sizes) < 2**63:
            w = scale // sizes
        else:
            w = np.array([scale // s for s in sizes.tolist()], dtype=object)
    votes = w @ hits
    labs = np.flatnonzero(votes)
    if labs.size == 0:
        return NO_ENHANCEMENT
    # neighbors arrive nearest-first: a label's first hit is its nearest voter
    nearest = neighbors.distances[np.argmax(hits[:, labs], axis=0)]
    return min(zip((-votes[labs]).tolist(), nearest.tolist(), labs.tolist()))[2]


def build_weight_matrix(candidates, enhanced, temperature: float) -> WeightMatrix:
    """Soft-target rows: 0 off-candidates, T on the enhanced label, 1 elsewhere.

    ``candidates`` is the (n, m) bool mask.  Rows are divided by their sum,
    so a clean sample is one-hot and a sentinel-enhanced row is uniform over
    its candidates.
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
    return WeightMatrix(weights=weights, temperature=temperature)
