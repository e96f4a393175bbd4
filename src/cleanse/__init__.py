"""Partial-label learning toolkit: clean-sample k-NN reweighting, an exact
Poisson-binomial count loss, a plain-numpy MLP trainer, and
nonparametric rank statistics."""

__version__ = "0.10.0"

from .countloss import (
    CountLossResult,
    batch_intervals,
    count_log_pmf,
    count_loss,
    interval_log_prob,
    log1mexp,
    logsumexp,
)
from .data import (
    DatasetStats,
    PartialDataset,
    PllFormatError,
    compute_stats,
    gaussian_clusters,
    generate_synthetic,
    read_pll_file,
    split,
    write_pll_file,
)
from .neural import Adam, Mlp, backward, forward, load_mlp, reweighted_ce, save_mlp
from .reweight import (
    NO_ENHANCEMENT,
    NeighborList,
    build_weight_matrix,
    enhanced_label,
    enhanced_labels,
    knn_search,
)
from .stats import RankTable, bonferroni_dunn_cd, friedman, friedman_chi2, rank_results
from .trainer import EpochMetrics, TrainConfig, evaluate, fit, summarize

__all__ = [
    "PartialDataset",
    "DatasetStats",
    "PllFormatError",
    "generate_synthetic",
    "compute_stats",
    "split",
    "gaussian_clusters",
    "read_pll_file",
    "write_pll_file",
    "NeighborList",
    "NO_ENHANCEMENT",
    "knn_search",
    "enhanced_label",
    "enhanced_labels",
    "build_weight_matrix",
    "CountLossResult",
    "log1mexp",
    "logsumexp",
    "count_log_pmf",
    "interval_log_prob",
    "batch_intervals",
    "count_loss",
    "Mlp",
    "Adam",
    "forward",
    "backward",
    "reweighted_ce",
    "save_mlp",
    "load_mlp",
    "TrainConfig",
    "EpochMetrics",
    "fit",
    "evaluate",
    "summarize",
    "RankTable",
    "rank_results",
    "friedman",
    "friedman_chi2",
    "bonferroni_dunn_cd",
    "__version__",
]
