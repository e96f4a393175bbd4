"""End-to-end training loop: reweighted CE plus count-loss regularizer.

Each epoch shuffles the training set with the run's seeded RNG and walks it
in mini-batches; per batch the count intervals are recounted, and the
combined objective  total = reweight_loss + lambda * count_loss  is
backpropagated.  Its weight rows come from the enhanced labels of the
current neighbor structure: built once per run at global scope, which
searches the raw features, and once per batch at batch scope, which
searches the raw features or the batch's last hidden layer; global scope
gathers each batch's rows.  Runs are deterministic given the config seed.

The network trains in float32 (``NETWORK_DTYPE``): its parameters, its
activations and the optimizer's state.  Everything from the logits on is
float64: the softmax, both losses and their logit gradient, the weights,
the intervals and every k-NN search.
"""

from __future__ import annotations

import math
import time
from dataclasses import KW_ONLY, InitVar, dataclass, field, fields

import numpy as np

# count_log_pmf, interval_log_prob and enhanced_label are unused here but stay
# bound: perfbench/spans.py wraps each of them on this module by name.
from .countloss import (  # noqa: F401
    batch_intervals,
    count_log_pmf,
    count_loss,
    count_loss_value,
    interval_log_prob,
)
from .data import PartialDataset
from .neural import Mlp, backward, forward, make_optimizer, reweighted_ce
from .reweight import (  # noqa: F401
    build_weight_matrix,
    enhanced_label,
    enhanced_labels,
    knn_search,
)


# dtype of the network fit trains; see the module docstring for the boundary
NETWORK_DTYPE = np.float32

# rows per forward block of evaluation, so its transients do not grow with
# the test set.  A block holds FORWARD_BLOCK to 2 * FORWARD_BLOCK - 1 rows
# (a smaller set is one block): never one row of many, since a one-row
# forward takes numpy's matrix-vector path, whose bits differ from a
# matrix's.  On a 2-core x86 VM (OpenBLAS, one thread), 64-row blocks left
# mnist-shape's peak RSS 0.3 MiB below 128-row blocks and 1.9 MiB below
# 256, and evaluated 12000x784 within 3% of one whole-set forward's time;
# 32-row blocks took 35% longer.
FORWARD_BLOCK = 64


def _one_of(*choices: str):
    """A string setting limited to ``choices``; the first is its default."""
    return field(default=choices[0], metadata={"choices": choices})


class RetiredChoice(ValueError):
    """A ``TrainConfig`` setting that an earlier release removed; the message
    names the release.  A fresh run exits 2 on it, a replayed manifest 3."""


# each removed field: (release, the one value whose runs still replay, or None
# where any value does, as it reached no output file).  TrainConfig takes each
# as a keyword-only InitVar, so a manifest that records it loads, and drops it
# at that value.
_RETIRED_FIELDS = {
    "count_mode": ("0.4.0", "nll"),
    "vote_mode": ("0.4.0", "fractional"),
    "eval_window": ("0.6.0", None),
    "optimizer": ("0.10.0", "adam"),
}
# each removed choice: (release, the settings that make it, what to do instead)
_RETIRED_CHOICES = (
    ("0.8.0", {"knn_scope": "global", "knn_features": "embedding"},
     "embedding neighbours are searched at knn_scope 'batch'"),
    ("0.9.0", {"optimizer": "sgd"}, "adam is the one optimizer"),
    ("0.9.0", {"knn_features": "embedding", "hidden": ()},
     "with no hidden layer it searched the raw features; use knn_features 'raw'"),
)


@dataclass(frozen=True)
class TrainConfig:
    """Every setting of a training run.

    ``cleanse train`` has one flag per field (``lam`` is ``--lambda``), with
    the field's default and, for the string settings, its choices.  The
    keywords after the fields are the ``_RETIRED_FIELDS``, in its order.
    """

    epochs: int = 250
    batch_size: int = 64
    lr: float = 1e-3
    weight_decay: float = 1e-5
    k: int = 10
    temperature: float = 3.0
    lam: float = 1e-3
    knn_scope: str = _one_of("batch", "global")
    knn_features: str = _one_of("raw", "embedding")
    hidden: tuple[int, ...] = (300, 300)
    seed: int = 0
    threads: int = 1
    _: KW_ONLY
    count_mode: InitVar[object] = None
    vote_mode: InitVar[object] = None
    eval_window: InitVar[object] = None
    optimizer: InitVar[object] = None

    def __post_init__(self, *removed):
        # types first, so no range rule below compares a value of the wrong type
        if not (isinstance(self.hidden, (tuple, list))
                and all(type(h) is int for h in self.hidden)):
            raise ValueError(f"hidden widths must be integers in a list, got {self.hidden!r}")
        object.__setattr__(self, "hidden", tuple(self.hidden))
        # before the choices, which no longer list a retired value; a removed
        # field not given is None
        given = {**dict(zip(_RETIRED_FIELDS, removed)),
                 **{f.name: getattr(self, f.name) for f in fields(self)}}
        for release, settings, instead in _RETIRED_CHOICES:
            if all(given[name] == value for name, value in settings.items()):
                named = " with ".join(f"{name} {value!r}" for name, value in settings.items())
                raise RetiredChoice(
                    f"config {named} names a mode removed in {release} ({instead})")
        for name, (release, kept) in _RETIRED_FIELDS.items():
            if kept is not None and given[name] not in (None, kept):
                raise RetiredChoice(f"config {name} {given[name]!r} names a mode removed "
                                    f"in {release} (only {name} {kept!r} still runs)")
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
    return np.split(perm, list(range(batch_size, len(perm) - batch_size + 1, batch_size)))


def smallest_knn_search(n: int, config: TrainConfig) -> int:
    """Rows in the smallest k-NN search ``fit`` makes on an n-row training
    set: all n at global scope, else its smallest batch."""
    if config.knn_scope == "global":
        return n
    return min(map(len, epoch_batches(np.arange(n), config.batch_size)))


def row_blocks(n: int) -> list[slice]:
    """Contiguous slices of n rows, cut as ``epoch_batches`` cuts n indices
    into batches of ``FORWARD_BLOCK``: the remainder joins the last block."""
    cuts = [0, *range(FORWARD_BLOCK, n - FORWARD_BLOCK + 1, FORWARD_BLOCK), n]
    return [slice(start, stop) for start, stop in zip(cuts, cuts[1:])]


def evaluate(model: Mlp, test: PartialDataset) -> float:
    """Argmax accuracy against the hidden truth (ties: lowest class index).

    The set runs through ``forward`` in ``row_blocks``; each row's
    probabilities have the bits of a whole-set forward, and the accuracy is
    the float that ``np.mean`` of the whole set's matches gives.
    """
    if test.hidden_truth is None:
        raise ValueError("evaluation requires a dataset with hidden truth")
    if test.n == 0:
        raise ValueError("evaluation requires a non-empty dataset")
    correct = 0
    for rows in row_blocks(test.n):
        _, probs = forward(model, test.features[rows])
        correct += int(np.count_nonzero(np.argmax(probs, axis=1) == test.hidden_truth[rows]))
    return correct / test.n


def summarize(history, window: int) -> tuple[float, float]:
    """Mean and population std of test accuracy over the last ``window``
    epochs; a history fit without a test set carries nan and is refused."""
    if window < 1 or window > len(history):
        raise ValueError("window must lie in 1..number of epochs")
    accs = np.array([h.test_accuracy for h in history[-window:]])
    if np.isnan(accs).any():
        raise ValueError("the window holds epochs with no test accuracy")
    return float(np.mean(accs)), float(np.std(accs))


def _check_network_range(name: str, features: np.ndarray) -> None:
    """Refuse a feature outside the network dtype's finite range (the cast
    would make it inf; nan fails the test too), naming its row and column."""
    limit = float(np.finfo(NETWORK_DTYPE).max)
    # two reductions allocate nothing; only a refusal looks for the entry
    if features.size == 0 or (features.max() <= limit and features.min() >= -limit):
        return
    row, col = np.argwhere(~(np.abs(features) <= limit))[0]
    raise ValueError(
        f"the {name} set's feature at row {row}, column {col} is {float(features[row, col])!r}, "
        f"outside the finite {np.dtype(NETWORK_DTYPE).name} range (magnitude <= {limit:.8g}) "
        "the network trains in"
    )


def check_datasets(train: PartialDataset, test: PartialDataset | None) -> None:
    """Refuse a training set of fewer than 2 rows (k-NN needs a neighbour), and
    a test set that is empty, has no truth labels, or another d or m than
    ``train``.  In either set, refuse a feature beyond the finite range of
    the network's dtype."""
    if train.n < 2:
        raise ValueError(f"the training set has {train.n} rows; training needs at least 2")
    _check_network_range("training", train.features)
    if test is None:
        return
    if test.n == 0:
        raise ValueError("the test set is empty")
    if test.hidden_truth is None:
        raise ValueError("the test set has no truth labels to evaluate against")
    if (test.d, test.m) != (train.d, train.m):
        raise ValueError(f"the test set has d={test.d}, m={test.m}; "
                         f"the training set has d={train.d}, m={train.m}")
    _check_network_range("test", test.features)


def batch_objective(
    probs: np.ndarray, weights: np.ndarray, lo, hi, lam: float
) -> tuple[float, float, np.ndarray]:
    """Reweighted CE, count loss and d(CE + lam * count) / d logits for one batch.

    At lam = 0 the count loss only enters the report: its value comes from
    ``count_loss_value``, with no gradient, and the logit gradient is the
    CE's own, so T = 1, lam = 0 training is the baseline's bit for bit.
    """
    rl, grad_logits, _ = reweighted_ce(probs, weights)
    if lam == 0.0:
        return rl, count_loss_value(probs, lo, hi), grad_logits
    cres = count_loss(probs, lo, hi)
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
    non-finite batch loss, the reweight loss or the count loss (which at
    lambda = 0 is only reported), stops the run with ``TrainingDiverged``
    before that batch's optimizer step.
    """
    check_datasets(train, test)
    view = train.strip_truth()
    rng = np.random.default_rng(config.seed)
    model = Mlp.init((view.d, *config.hidden, view.m), rng, dtype=NETWORK_DTYPE)
    opt = make_optimizer(config.lr, config.weight_decay)

    embed = config.knn_features == "embedding"

    def weight_rows(features, cands):
        """Weight rows of ``cands``' rows, from their enhanced labels among
        their k nearest in ``features``."""
        nb = knn_search(features, config.k, threads=config.threads)
        enhanced = enhanced_labels(cands, cands[nb.indices], nb.distances)
        return build_weight_matrix(cands, enhanced, config.temperature)

    global_weights = None
    if config.knn_scope == "global":
        # neighbours, enhanced labels and weight rows of the raw view never change
        global_weights = weight_rows(view.features, view.candidates)
    grads = model.gradient_buffer()  # every step's backward writes into it

    history: list[EpochMetrics] = []
    for epoch in range(config.epochs):
        t0 = time.perf_counter()
        perm = rng.permutation(view.n)
        sum_rl = sum_rg = 0.0
        for batch_no, batch_idx in enumerate(epoch_batches(perm, config.batch_size)):
            feats = view.features[batch_idx]
            cands = view.candidates[batch_idx]
            # cast once: forward and backward both take this array as it is
            X = feats.astype(NETWORK_DTYPE)
            hidden, probs = forward(model, X)

            if config.knn_scope == "batch":
                weights = weight_rows(hidden[-1] if embed else feats, cands)
            else:
                weights = global_weights[batch_idx]
            lo, hi = batch_intervals(cands)
            rl, rg, grad_logits = batch_objective(probs, weights, lo, hi, config.lam)
            if not (math.isfinite(rl) and math.isfinite(rg)):
                raise TrainingDiverged(epoch, batch_no, rl, rg)
            sum_rl += rl * len(batch_idx)
            sum_rg += rg * len(batch_idx)

            opt.step(model, backward(model, X, hidden, grad_logits, grads))

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
