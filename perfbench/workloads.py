"""The benchmark's training workloads: what each one runs and why it exists.

Every input is generated here from the benchmark seed; the program under
test only ever sees the resulting PLL files.  The sizes are part of each
workload's definition.  ``epochs`` is the length of one workload process;
the runner repeats processes to fill the measuring time.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

import cleanse


def cores() -> int:
    """CPUs this process may run on (what ``nproc`` prints)."""
    return len(os.sched_getaffinity(0))


@dataclass(frozen=True)
class Workload:
    name: str
    why: str  # why this workload was chosen
    moves: str  # the layer metrics it is meant to move
    epochs: int
    config: dict  # TrainConfig fields; the seed comes from the benchmark seed
    min_accuracy: float  # floor on last-epoch test accuracy (learning check)
    generate: Callable[[int], tuple]  # seed -> (train, test) PartialDatasets


def _desk(seed: int):
    # Mirrors desk_benchmark() in tests/test_acceptance.py.
    feats, labels = cleanse.gaussian_clusters(800, 3, seed=100 + seed)
    cands = cleanse.generate_synthetic(labels, 3, q=0.5, seed=200 + seed)
    ds = cleanse.PartialDataset(features=feats, candidates=cands, m=3, hidden_truth=labels)
    return cleanse.split(ds, 0.25, seed=300 + seed)


def gaussian_classes(n: int, m: int, d: int, separation: float, seed: int):
    """(features, labels): m isotropic unit Gaussians around fixed centres.

    The centres are N(0, separation^2 I) draws that depend only on (m, d),
    so every seed samples the same classes, as gaussian_clusters does;
    labels are uniform.
    """
    centres = separation * np.random.default_rng(m * d).standard_normal((m, d))
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, m, size=n)
    return centres[labels] + rng.standard_normal((n, d)), labels


def _synthetic(n: int, m: int, d: int, separation: float, q: float, test_fraction: float):
    def generate(seed: int):
        feats, labels = gaussian_classes(n, m, d, separation, seed=400 + seed)
        cands = cleanse.generate_synthetic(labels, m, q=q, seed=500 + seed)
        ds = cleanse.PartialDataset(features=feats, candidates=cands, m=m, hidden_truth=labels)
        return cleanse.split(ds, test_fraction, seed=600 + seed)

    return generate


# Shared by every workload: the acceptance suite's training defaults.
_COMMON = dict(temperature=3.0, optimizer="adam", knn_features="raw")

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="desk",
            why=(
                "Acceptance desk config: small batches at d=2, so the count-loss "
                "gradient owns the epoch and k-NN runs once, in setup."
            ),
            moves=(
                "countloss.count_loss_s, then reweight.enhanced_label_s, "
                "data.subset_s, reweight.build_weight_matrix_s, "
                "countloss.batch_intervals_s -> epoch_s_p50; cleanse.import_s -> "
                "setup_s. A k-NN change should leave it flat."
            ),
            epochs=20,
            config=dict(
                _COMMON, batch_size=64, hidden=(32, 32), k=20, knn_scope="global",
                lam=1e-3, threads=1,
            ),
            min_accuracy=0.85,
            generate=_desk,
        ),
        Workload(
            name="mnist-shape",
            why=(
                "MNIST-sized d=784 with batch-scope k-NN and lambda=0: GEMM- and "
                "k-NN-bound, and the count loss runs only the value-only DP."
            ),
            moves=(
                "reweight.knn_search_epoch_s, neural.*_s, countloss.count_log_pmf_s "
                "-> epoch_s_p50; data.read_pll_file_s -> setup_s. A gradient-DP "
                "gain should leave it flat."
            ),
            epochs=4,
            config=dict(
                _COMMON, batch_size=64, hidden=(300, 300), k=10, knn_scope="batch",
                lam=0.0, threads=1,
            ),
            min_accuracy=0.8,
            generate=_synthetic(3000, 10, 784, separation=0.5, q=0.3, test_fraction=0.2),
        ),
        # Run by hand (--workload big-batch or all); BENCHMARK.json leaves it
        # out.  On a shared 2-core VM its cache-heavy n=1024 DP drifted 25%
        # between runs minutes apart, more than a regression bound can allow.
        Workload(
            name="big-batch",
            why=(
                "Batch 1024 puts the count-loss DP at n=1024, and global k-NN over "
                "5120 points takes the GEMM path and the thread pool in setup."
            ),
            moves=(
                "countloss.count_loss_s -> epoch_s_p50 and train_samples_per_s, so "
                "a DP gain at n=64 that costs n=1024 shows here; "
                "reweight.knn_search_setup_s -> setup_s."
            ),
            epochs=4,
            # lr scaled with the batch (1e-3 x 1024/64): at the default, with
            # 5 steps per epoch, accuracy stays near chance and seed-bound.
            config=dict(
                _COMMON, batch_size=1024, hidden=(64,), k=10, knn_scope="global",
                lam=1e-3, lr=1.6e-2, threads=min(2, cores()),
            ),
            min_accuracy=0.8,
            generate=_synthetic(6400, 5, 32, separation=1.0, q=0.3, test_fraction=0.2),
        ),
    )
}
