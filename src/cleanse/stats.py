"""Nonparametric comparison of algorithms across cases: Friedman ranks
and the Bonferroni-Dunn critical difference."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class RankTable:
    """Average rank per algorithm over N comparison cases (rank 1 = best)."""

    k: int
    n_cases: int
    avg_ranks: np.ndarray

    def __post_init__(self):
        ranks = np.asarray(self.avg_ranks, dtype=np.float64)
        if len(ranks) != self.k:
            raise ValueError("one average rank per algorithm required")
        if np.any(ranks < 1.0) or np.any(ranks > self.k):
            raise ValueError(f"average ranks must lie in [1, {self.k}]")
        object.__setattr__(self, "avg_ranks", ranks)


def rank_results(accuracies: np.ndarray, fixed_ranks: dict[int, float] | None = None) -> RankTable:
    """Average ranks from an N x k accuracy matrix (higher accuracy = rank 1).

    Ties share the averaged rank.  ``fixed_ranks`` pins chosen columns at a
    constant rank in every case (e.g. algorithms with unavailable results
    settled at a fixed position); the remaining columns are ranked among
    themselves.
    """
    acc = np.asarray(accuracies, dtype=np.float64)
    if acc.ndim != 2 or acc.shape[0] < 1 or acc.shape[1] < 2:
        raise ValueError("accuracies must be an N x k matrix with k >= 2")
    if np.any(np.isnan(acc)):
        raise ValueError("missing accuracy entries are not allowed")
    n_cases, k = acc.shape
    fixed = fixed_ranks or {}
    for col, rank in fixed.items():
        if not 0 <= col < k:
            raise ValueError(f"fixed-rank column {col} out of range")
        if not 1.0 <= rank <= k:
            raise ValueError(f"fixed rank {rank} outside [1, {k}]")
    free = [j for j in range(k) if j not in fixed]

    ranks = np.empty_like(acc)
    for col, rank in fixed.items():
        ranks[:, col] = rank
    if free:
        # imported here: scipy.stats costs about a second at import time
        from scipy.stats import rankdata

        # rank 1 = best, so rank the negated accuracies
        ranks[:, free] = rankdata(-acc[:, free], method="average", axis=1)
    return RankTable(k=k, n_cases=n_cases, avg_ranks=ranks.mean(axis=0))


def friedman_chi2(table: RankTable) -> float:
    """chi2 = 12N/(k(k+1)) * (sum_i R_i^2 - k(k+1)^2/4)."""
    k, n = table.k, table.n_cases
    if k < 2:
        raise ValueError("Friedman test needs >= 2 algorithms")
    if n < 2:
        raise ValueError("Friedman test needs >= 2 cases")
    r = table.avg_ranks
    return 12.0 * n / (k * (k + 1)) * (float(np.sum(r * r)) - k * (k + 1) ** 2 / 4.0)


def friedman(table: RankTable) -> tuple[float, float]:
    """Friedman chi-square over average ranks and its F-distributed variant.

    F = (N-1) chi2 / (N(k-1) - chi2); perfect agreement drives the
    denominator to zero, which is reported as a degenerate statistic.
    """
    chi2 = friedman_chi2(table)
    n, k = table.n_cases, table.k
    denom = n * (k - 1) - chi2
    if denom <= 0.0:
        raise ValueError("degenerate Friedman statistic: N(k-1) - chi2 <= 0")
    return chi2, (n - 1) * chi2 / denom


def bonferroni_dunn_cd(q_alpha: float, k: int, n_cases: int) -> float:
    """Post-hoc critical difference CD = q_alpha * sqrt(k(k+1) / (6N))."""
    if q_alpha <= 0.0:
        raise ValueError("q_alpha must be positive")
    return q_alpha * float(np.sqrt(k * (k + 1) / (6.0 * n_cases)))


# Common two-tailed Bonferroni-Dunn q values at alpha = 0.05 (control vs
# k-1 others); callers may always pass their own.
Q_ALPHA_05 = {
    2: 1.960,
    3: 2.241,
    4: 2.394,
    5: 2.498,
    6: 2.576,
    7: 2.638,
    8: 2.690,
    9: 2.724,
    10: 2.773,
}
