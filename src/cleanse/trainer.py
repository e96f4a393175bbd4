"""End-to-end training loop: reweighted CE plus count-loss regularizer.

Each epoch shuffles the training set with the run's seeded RNG and walks it
in mini-batches; per batch the weight matrix is rebuilt from the current
neighbor structure, the count intervals are recounted, and the combined
objective  total = reweight_loss + lambda * count_loss  is backpropagated.
Runs are deterministic given the config seed.
"""

from __future__ import annotations

import math
import sys
import time
from dataclasses import dataclass

import numpy as np

# count_log_pmf and interval_log_prob are unused here but stay bound:
# perfbench/spans.py wraps every count-loss name on this module.
from .countloss import (  # noqa: F401
    batch_intervals,
    count_log_pmf,
    count_loss,
    count_loss_value,
    interval_log_prob,
)
from .data import PartialDataset
from .neural import (
    Mlp,
    backward,
    forward,
    make_optimizer,
    penultimate,
    reweighted_ce,
)
from .reweight import build_weight_matrix, enhanced_label, knn_search


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 250
    batch_size: int = 64
    lr: float = 1e-3
    weight_decay: float = 1e-5
    k: int = 10
    temperature: float = 3.0
    lam: float = 1e-3
    count_mode: str = "nll"
    knn_scope: str = "batch"
    knn_features: str = "raw"
    vote_mode: str = "fractional"
    optimizer: str = "adam"
    hidden: tuple[int, ...] = (300, 300)
    precision: str = "double"
    seed: int = 0
    eval_window: int = 10
    eval_stride: int = 1
    threads: int = 1

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.batch_size < 2:
            raise ValueError("batch_size must be >= 2 (k-NN needs a neighbor)")
        if self.temperature < 1.0:
            raise ValueError("temperature must be >= 1")
        if self.lam < 0.0:
            raise ValueError("lambda must be >= 0")
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if self.count_mode not in ("nll", "entropy"):
            raise ValueError(f"unknown count mode {self.count_mode!r}")
        if self.knn_scope not in ("batch", "global"):
            raise ValueError(f"unknown knn scope {self.knn_scope!r}")
        if self.knn_features not in ("raw", "embedding"):
            raise ValueError(f"unknown knn feature space {self.knn_features!r}")
        if self.vote_mode not in ("fractional", "multiset"):
            raise ValueError(f"unknown vote mode {self.vote_mode!r}")
        if self.precision not in ("double", "single"):
            raise ValueError(f"unknown precision {self.precision!r}")
        if self.eval_window < 1 or self.eval_stride < 1:
            raise ValueError("eval window and stride must be >= 1")
        if self.threads < 1:
            raise ValueError("threads must be >= 1")
        object.__setattr__(self, "hidden", tuple(int(h) for h in self.hidden))


class TrainingDiverged(ArithmeticError):
    """A batch loss went non-finite; names the epoch and batch where it did."""

    def __init__(self, epoch: int, batch: int, reweight_loss: float, count_loss: float):
        super().__init__(
            f"training diverged at epoch {epoch}, batch {batch}: "
            f"reweight loss {reweight_loss}, count loss {count_loss}"
        )
        self.epoch = epoch
        self.batch = batch


@dataclass(frozen=True)
class EpochMetrics:
    epoch: int
    reweight_loss: float
    count_loss: float
    total_loss: float
    test_accuracy: float
    seconds: float


def epoch_batches(perm: np.ndarray, batch_size: int) -> list[np.ndarray]:
    """Contiguous batches of a shuffled index vector.

    An incomplete final batch is merged into the previous one so every
    sample trains each epoch and no batch ever has fewer than 2 instances.
    """
    n = len(perm)
    full = n // batch_size
    if full == 0:
        return [perm]
    batches = [perm[i * batch_size : (i + 1) * batch_size] for i in range(full)]
    rest = n - full * batch_size
    if rest:
        batches[-1] = perm[(full - 1) * batch_size :]
    return batches


def evaluate(model: Mlp, test: PartialDataset) -> float:
    """Argmax accuracy against the hidden truth (ties: lowest class index)."""
    if test.hidden_truth is None:
        raise ValueError("evaluation requires a dataset with hidden truth")
    _, probs = forward(model, test.features)
    pred = np.argmax(probs, axis=1)
    return float(np.mean(pred == test.hidden_truth))


def summarize(history, window: int) -> tuple[float, float]:
    """Mean and population std of test accuracy over the last ``window`` epochs."""
    if window < 1 or window > len(history):
        raise ValueError("window must lie in 1..len(history)")
    accs = np.array([h.test_accuracy for h in history[-window:]])
    return float(np.mean(accs)), float(np.std(accs))


def fit(
    train: PartialDataset,
    test: PartialDataset | None,
    config: TrainConfig,
    on_epoch=None,
    progress=False,
) -> tuple[Mlp, list[EpochMetrics]]:
    """Train a classifier on a partial-label dataset.

    The training view is truth-stripped before anything else runs, so the
    hidden labels cannot leak into any gradient.  ``on_epoch`` (if given)
    receives (EpochMetrics, model) as each epoch finishes, e.g. to tail a
    CSV or write periodic checkpoints.  A non-finite batch loss stops the
    run with ``TrainingDiverged`` before the optimizer step.
    """
    if train.n == 0:
        raise ValueError("training set is empty")
    view = train.strip_truth()
    m = view.m
    rng = np.random.default_rng(config.seed)
    dtype = np.float64 if config.precision == "double" else np.float32
    model = Mlp.init((view.d, *config.hidden, m), rng, dtype=dtype)
    opt = make_optimizer(config.optimizer, config.lr, config.weight_decay)

    global_neighbors = global_enhanced = None
    if config.knn_scope == "global" and config.knn_features == "raw":
        # neighbours and enhanced labels of the raw view never change
        global_neighbors = knn_search(view.features, config.k, threads=config.threads)
        global_enhanced = [
            enhanced_label(g, view, global_neighbors[g], config.vote_mode)
            for g in range(view.n)
        ]

    history: list[EpochMetrics] = []
    for epoch in range(config.epochs):
        t0 = time.perf_counter()
        if config.knn_scope == "global" and config.knn_features == "embedding":
            emb = penultimate(model, view.features)
            global_neighbors = knn_search(emb, config.k, threads=config.threads)

        perm = rng.permutation(view.n)
        sum_rl = sum_rg = 0.0
        for batch_no, batch_idx in enumerate(epoch_batches(perm, config.batch_size)):
            batch = view.subset(batch_idx)
            X = batch.features
            _, probs = forward(model, X)

            if config.knn_scope == "batch":
                feats = X if config.knn_features == "raw" else penultimate(model, X)
                neighbors = knn_search(feats, config.k, threads=config.threads)
                enhanced = [
                    enhanced_label(i, batch, neighbors[i], config.vote_mode)
                    for i in range(batch.n)
                ]
            elif global_enhanced is not None:
                enhanced = [global_enhanced[g] for g in batch_idx]
            else:
                enhanced = [
                    enhanced_label(int(g), view, global_neighbors[int(g)], config.vote_mode)
                    for g in batch_idx
                ]
            wm = build_weight_matrix(batch.candidates, m, enhanced, config.temperature)

            rl, grad_logits, _ = reweighted_ce(probs, wm.weights)
            intervals = batch_intervals(batch.candidates, m)
            if config.lam != 0.0:
                cres = count_loss(probs, intervals, config.count_mode)
                rg = cres.loss
                # route the prob-space gradient through the softmax Jacobian
                gdotp = np.sum(cres.grad * probs, axis=1, keepdims=True)
                grad_logits = grad_logits + config.lam * probs * (cres.grad - gdotp)
            else:
                rg = count_loss_value(probs, intervals, config.count_mode)
            if not (math.isfinite(rl) and math.isfinite(rg)):
                raise TrainingDiverged(epoch, batch_no, rl, rg)

            nb = len(batch_idx)
            sum_rl += rl * nb
            sum_rg += rg * nb

            grads = backward(model, X, grad_logits)
            opt.step(model, grads)

        mean_rl = sum_rl / view.n
        mean_rg = sum_rg / view.n
        total = mean_rl + config.lam * mean_rg

        acc = float("nan")
        if test is not None and (
            epoch % config.eval_stride == 0 or epoch == config.epochs - 1
        ):
            acc = evaluate(model, test)
        metrics = EpochMetrics(
            epoch=epoch,
            reweight_loss=mean_rl,
            count_loss=mean_rg,
            total_loss=total,
            test_accuracy=acc,
            seconds=time.perf_counter() - t0,
        )
        history.append(metrics)
        if on_epoch is not None:
            on_epoch(metrics, model)
        if progress:
            print(
                f"epoch {epoch}: reweight={mean_rl:.6f} count={mean_rg:.6f} "
                f"total={total:.6f} acc={acc:.4f} ({metrics.seconds:.2f}s)",
                file=sys.stderr,
            )
    return model, history


CSV_HEADER = "epoch,reweight_loss,count_loss,total_loss,test_accuracy,seconds"


def format_metrics_row(metrics: EpochMetrics, include_timing: bool = False) -> str:
    """One CSV row, 9 significant digits.

    Timing is zeroed unless explicitly requested: the CSV is a replayable
    data artifact, and wall time is the one field a rerun cannot reproduce.
    """
    secs = metrics.seconds if include_timing else 0.0
    return (
        f"{metrics.epoch},{metrics.reweight_loss:.9g},{metrics.count_loss:.9g},"
        f"{metrics.total_loss:.9g},{metrics.test_accuracy:.9g},{secs:.9g}"
    )


def write_metrics_csv(history, path, include_timing: bool = False) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(CSV_HEADER + "\n")
        for metrics in history:
            fh.write(format_metrics_row(metrics, include_timing) + "\n")


def read_metrics_csv(path) -> list[EpochMetrics]:
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n")
        if header != CSV_HEADER:
            raise ValueError(f"unexpected metrics header {header!r}")
        out = []
        for line in fh:
            e, rl, rg, tot, acc, secs = line.rstrip("\n").split(",")
            out.append(
                EpochMetrics(
                    epoch=int(e),
                    reweight_loss=float(rl),
                    count_loss=float(rg),
                    total_loss=float(tot),
                    test_accuracy=float(acc),
                    seconds=float(secs),
                )
            )
    return out
