"""Nonparametric comparison of algorithms across cases: Friedman ranks
and the Bonferroni-Dunn critical difference."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# published average ranks are printed to two decimals, so each may be off by
# half a unit in the last place; 1e-9 more absorbs float error in the sums
_RANK_ROUNDING = 0.005 + 1e-9


@dataclass(frozen=True)
class RankTable:
    """Average rank per algorithm over N comparison cases (rank 1 = best).

    A table is refused unless some ranking gives it.  By Rado's theorem the
    average ranks of N rankings of k items (ties averaged) are exactly the
    vectors whose j smallest entries sum to at least j(j+1)/2 for every j
    and whose total is k(k+1)/2; each rank may be off by ``_RANK_ROUNDING``.
    """

    k: int
    n_cases: int
    avg_ranks: np.ndarray

    def __post_init__(self):
        ranks = np.asarray(self.avg_ranks, dtype=np.float64)
        if len(ranks) != self.k:
            raise ValueError("one average rank per algorithm required")
        if not np.all((ranks >= 1.0) & (ranks <= self.k)):  # NaN fails both
            raise ValueError(f"average ranks must be finite and lie in [1, {self.k}]")
        k, j = self.k, np.arange(1, self.k + 1)
        prefix = np.cumsum(np.sort(ranks))
        if (np.any(prefix < j * (j + 1) / 2 - j * _RANK_ROUNDING)
                or abs(float(np.sum(ranks)) - k * (k + 1) / 2) > k * _RANK_ROUNDING):
            raise ValueError(
                f"average ranks {ranks.tolist()} come from no ranking: the j smallest "
                f"must sum to at least j(j+1)/2 and all {k} to {k * (k + 1) // 2}"
            )
        object.__setattr__(self, "avg_ranks", ranks)


def rank_results(accuracies: np.ndarray, fixed_ranks: dict[int, float] | None = None) -> RankTable:
    """Average ranks from an N x k accuracy matrix (higher accuracy = rank 1).

    Ties share the averaged rank.  ``fixed_ranks`` pins chosen columns at a
    constant rank in every case (e.g. algorithms with unavailable results
    settled at a fixed position); the remaining columns are ranked among
    themselves, so pins that no ranking gives (two columns both at rank k)
    are refused with the table.
    """
    acc = np.asarray(accuracies, dtype=np.float64)
    if acc.ndim != 2 or acc.shape[0] < 1 or acc.shape[1] < 2:
        raise ValueError("accuracies must be an N x k matrix with k >= 2")
    if np.any(np.isnan(acc)):
        raise ValueError("missing accuracy entries are not allowed")
    n_cases, k = acc.shape
    fixed = fixed_ranks or {}
    for col in fixed:
        if not 0 <= col < k:
            raise ValueError(f"fixed-rank column {col} out of range")
    free = [j for j in range(k) if j not in fixed]

    ranks = np.empty_like(acc)
    for col, rank in fixed.items():
        ranks[:, col] = rank
    # rank = free columns strictly better + (ties, itself included, + 1) / 2:
    # the mean of the tied positions, exact in float64 (integers and halves)
    for col in free:
        better = np.sum(acc[:, free] > acc[:, [col]], axis=1)
        tied = np.sum(acc[:, free] == acc[:, [col]], axis=1)
        ranks[:, col] = better + (tied + 1) / 2
    return RankTable(k=k, n_cases=n_cases, avg_ranks=ranks.mean(axis=0))


def friedman_chi2(table: RankTable) -> float:
    """chi2 = 12N/(k(k+1)) * (sum_i R_i^2 - k(k+1)^2/4).

    Average ranks of a real ranking sum to k(k+1)/2, so their squares sum to
    at least k(k+1)^2/4 and chi2 >= 0; ranks rounded within what
    ``RankTable`` allows can dip below that floor, which reads as 0.
    """
    k, n = table.k, table.n_cases
    if k < 2:
        raise ValueError("Friedman test needs >= 2 algorithms")
    if n < 2:
        raise ValueError("Friedman test needs >= 2 cases")
    r = table.avg_ranks
    spread = float(np.sum(r * r)) - k * (k + 1) ** 2 / 4.0
    return 12.0 * n / (k * (k + 1)) * max(spread, 0.0)


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
    if not 0.0 < q_alpha < np.inf:
        raise ValueError(f"q_alpha must be finite and > 0, got {q_alpha}")
    if k < 2 or n_cases < 1:
        raise ValueError(
            f"the critical difference needs k >= 2 and N >= 1, got k={k}, N={n_cases}"
        )
    return q_alpha * float(np.sqrt(k * (k + 1) / (6.0 * n_cases)))


# Common two-tailed Bonferroni-Dunn q values at alpha = 0.05 (control vs
# k-1 others); `cleanse stats` uses them unless --q-alpha is given.
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
