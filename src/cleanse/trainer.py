"""End-to-end training loop: reweighted CE plus count-loss regularizer.

Each epoch shuffles the training set with the run's seeded RNG and walks it
in mini-batches; per batch the weight matrix is rebuilt from the current
neighbor structure, the count intervals are recounted, and the combined
objective  total = reweight_loss + lambda * count_loss  is backpropagated.
Runs are deterministic given the config seed.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, fields

import numpy as np

# count_log_pmf and interval_log_prob are unused here but stay bound:
# perfbench/spans.py wraps every count-loss name on this module.
from .countloss import (  # noqa: F401
    COUNT_MODES,
    batch_intervals,
    count_log_pmf,
    count_loss,
    count_loss_values,
    interval_log_prob,
)
from .data import PartialDataset
from .neural import (
    OPTIMIZERS,
    Mlp,
    backward,
    forward,
    make_optimizer,
    reweighted_ce,
)
from .reweight import VOTE_MODES, build_weight_matrix, enhanced_label, knn_search


def _one_of(*choices: str):
    """A string setting limited to ``choices``; the first is its default."""
    return field(default=choices[0], metadata={"choices": choices})


@dataclass(frozen=True)
class TrainConfig:
    """Every setting of a training run.

    ``cleanse train`` has one flag per field (``lam`` is ``--lambda``), with
    the field's default and, for the string modes, its choices.
    """

    epochs: int = 250
    batch_size: int = 64
    lr: float = 1e-3
    weight_decay: float = 1e-5
    k: int = 10
    temperature: float = 3.0
    lam: float = 1e-3
    count_mode: str = _one_of(*COUNT_MODES)
    knn_scope: str = _one_of("batch", "global")
    knn_features: str = _one_of("raw", "embedding")
    vote_mode: str = _one_of(*VOTE_MODES)
    optimizer: str = _one_of(*OPTIMIZERS)
    hidden: tuple[int, ...] = (300, 300)
    seed: int = 0
    eval_window: int = 10
    threads: int = 1

    def __post_init__(self):
        # types first, so no range rule below compares a value of the wrong type
        if not (isinstance(self.hidden, (tuple, list))
                and all(type(h) is int for h in self.hidden)):
            raise ValueError(f"hidden widths must be integers in a list, got {self.hidden!r}")
        object.__setattr__(self, "hidden", tuple(self.hidden))
        for f in fields(self):
            value = getattr(self, f.name)
            if type(f.default) is int and type(value) is not int:
                raise ValueError(f"{f.name} must be an integer, got {value!r}")
            if type(f.default) is float and (
                isinstance(value, bool) or not isinstance(value, (int, float))
            ):
                raise ValueError(f"{f.name} must be a number, got {value!r}")
            if "choices" in f.metadata and value not in f.metadata["choices"]:
                raise ValueError(f"unknown {f.name} {value!r}")
        rules = (
            (self.epochs >= 1, "epochs must be >= 1"),
            (self.batch_size >= 2, "batch_size must be >= 2 (k-NN needs a neighbor)"),
            (0.0 < self.lr < math.inf, "lr must be finite and > 0"),
            (0.0 <= self.weight_decay < math.inf, "weight_decay must be finite and >= 0"),
            (self.k >= 1, "k must be >= 1"),
            (1.0 <= self.temperature < math.inf, "temperature must be finite and >= 1"),
            (0.0 <= self.lam < math.inf, "lambda must be finite and >= 0"),
            (all(h >= 1 for h in self.hidden), "hidden widths must be >= 1"),
            (self.seed >= 0, "seed must be >= 0"),
            (self.eval_window >= 1, "eval_window must be >= 1"),
            (self.threads >= 1, "threads must be >= 1"),
        )
        for ok, message in rules:
            if not ok:
                raise ValueError(message)


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
    """Mean and population std of test accuracy over the last ``window``
    epochs; a history fit without a test set carries nan and is refused."""
    if window < 1 or window > len(history):
        raise ValueError("window must lie in 1..number of epochs")
    accs = np.array([h.test_accuracy for h in history[-window:]])
    if np.isnan(accs).any():
        raise ValueError("the window holds epochs with no test accuracy")
    return float(np.mean(accs)), float(np.std(accs))


def check_datasets(train: PartialDataset, test: PartialDataset | None) -> None:
    """Refuse a training set of fewer than 2 rows (k-NN needs a neighbour), and
    a test set that is empty, has no truth labels, or another d or m than ``train``."""
    if train.n < 2:
        raise ValueError(f"the training set has {train.n} rows; training needs at least 2")
    if test is None:
        return
    if test.n == 0:
        raise ValueError("the test set is empty")
    if test.hidden_truth is None:
        raise ValueError("the test set has no truth labels to evaluate against")
    if (test.d, test.m) != (train.d, train.m):
        raise ValueError(f"the test set has d={test.d}, m={test.m}; "
                         f"the training set has d={train.d}, m={train.m}")


def _enhanced_labels(dataset: PartialDataset, neighbors, vote_mode: str) -> np.ndarray:
    """(n,) int64 enhanced label of every row of ``dataset``, in row order."""
    return np.array(
        [enhanced_label(i, dataset, neighbors[i], vote_mode) for i in range(dataset.n)],
        dtype=np.int64,
    )


def batch_objective(
    probs: np.ndarray, weights: np.ndarray, lo, hi, lam: float, mode: str
) -> tuple[float, float | None, np.ndarray]:
    """Reweighted CE, count loss and d(CE + lam * count) / d logits for one batch.

    At lam = 0 the count loss only enters the report, so no count value is
    returned (None): ``fit`` computes the epoch's values in one
    ``count_loss_values`` call.
    """
    rl, grad_logits, _ = reweighted_ce(probs, weights)
    if lam == 0.0:
        return rl, None, grad_logits
    cres = count_loss(probs, lo, hi, mode)
    # route the prob-space gradient through the softmax Jacobian
    gdotp = np.sum(cres.grad * probs, axis=1, keepdims=True)
    return rl, cres.loss, grad_logits + lam * probs * (cres.grad - gdotp)


def fit(
    train: PartialDataset,
    test: PartialDataset | None,
    config: TrainConfig,
    on_epoch=None,
) -> tuple[Mlp, list[EpochMetrics]]:
    """Train a classifier on a partial-label dataset.

    Both sets must pass ``check_datasets``.  The training view is
    truth-stripped before anything else runs, so the hidden labels cannot
    leak into any gradient.  Each epoch is evaluated on ``test`` (if given;
    otherwise its accuracy is nan), and ``on_epoch`` (if given) receives
    (EpochMetrics, model) after it; that is the only report ``fit`` makes.  A
    non-finite batch loss stops the run with ``TrainingDiverged`` before
    that batch's optimizer step.  At lambda = 0 the count losses are only
    reported; they are computed after the epoch's last step, in one
    ``count_loss_values`` call, and a non-finite one raises
    ``TrainingDiverged`` naming its batch then.
    """
    check_datasets(train, test)
    view = train.strip_truth()
    rng = np.random.default_rng(config.seed)
    model = Mlp.init((view.d, *config.hidden, view.m), rng)
    opt = make_optimizer(config.optimizer, config.lr, config.weight_decay)

    embed = config.knn_features == "embedding" and len(config.hidden) > 0
    global_enhanced = None
    if config.knn_scope == "global" and not embed:
        # neighbours and enhanced labels of the raw view never change
        neighbors = knn_search(view.features, config.k, threads=config.threads)
        global_enhanced = _enhanced_labels(view, neighbors, config.vote_mode)

    history: list[EpochMetrics] = []
    for epoch in range(config.epochs):
        t0 = time.perf_counter()
        if config.knn_scope == "global" and embed:
            hidden, _ = forward(model, view.features)
            neighbors = knn_search(hidden[-1], config.k, threads=config.threads)
            global_enhanced = _enhanced_labels(view, neighbors, config.vote_mode)

        perm = rng.permutation(view.n)
        sum_rl = 0.0
        batch_rl, batch_rg, deferred = [], [], []  # deferred: lambda = 0 count inputs
        batches = epoch_batches(perm, config.batch_size)
        for batch_no, batch_idx in enumerate(batches):
            batch = view.subset(batch_idx)
            X = batch.features
            hidden, probs = forward(model, X)

            if config.knn_scope == "batch":
                feats = hidden[-1] if embed else X
                neighbors = knn_search(feats, config.k, threads=config.threads)
                enhanced = _enhanced_labels(batch, neighbors, config.vote_mode)
            else:
                enhanced = global_enhanced[batch_idx]
            weights = build_weight_matrix(batch.candidates, enhanced, config.temperature)
            lo, hi = batch_intervals(batch.candidates)
            rl, rg, grad_logits = batch_objective(
                probs, weights, lo, hi, config.lam, config.count_mode
            )
            if rg is None:  # lambda = 0: computed after the epoch's last step
                deferred.append((probs, lo, hi))
            if not (math.isfinite(rl) and (rg is None or math.isfinite(rg))):
                if rg is None:
                    rg = count_loss_values([(probs, lo, hi)], config.count_mode)[0]
                raise TrainingDiverged(epoch, batch_no, rl, rg)

            sum_rl += rl * len(batch_idx)
            batch_rl.append(rl)
            batch_rg.append(rg)

            grads = backward(model, X, hidden, grad_logits)
            opt.step(model, grads)

        if deferred:
            batch_rg = count_loss_values(deferred, config.count_mode)
            deferred.clear()  # the epoch's probabilities, freed before evaluation
            for batch_no, rg in enumerate(batch_rg):
                if not math.isfinite(rg):
                    raise TrainingDiverged(epoch, batch_no, batch_rl[batch_no], rg)
        sum_rg = 0.0
        for batch_idx, rg in zip(batches, batch_rg):
            sum_rg += rg * len(batch_idx)
        mean_rl = sum_rl / view.n
        mean_rg = sum_rg / view.n
        total = mean_rl + config.lam * mean_rg

        metrics = EpochMetrics(
            epoch=epoch,
            reweight_loss=mean_rl,
            count_loss=mean_rg,
            total_loss=total,
            test_accuracy=float("nan") if test is None else evaluate(model, test),
            seconds=time.perf_counter() - t0,
        )
        history.append(metrics)
        if on_epoch is not None:
            on_epoch(metrics, model)
    return model, history


CSV_HEADER = "epoch,reweight_loss,count_loss,total_loss,test_accuracy"


def format_metrics_row(metrics: EpochMetrics) -> str:
    """One CSV row, 9 significant digits.

    Wall time has no column: the CSV is a replayable data artifact, and
    ``EpochMetrics.seconds`` is the one field a rerun cannot reproduce.
    """
    return (
        f"{metrics.epoch},{metrics.reweight_loss:.9g},{metrics.count_loss:.9g},"
        f"{metrics.total_loss:.9g},{metrics.test_accuracy:.9g}"
    )
