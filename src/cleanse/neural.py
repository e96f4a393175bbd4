"""Minimal feed-forward classifier with exact manual gradients.

Parameters and activations share one dtype, chosen at ``Mlp.init``: float64
by default, which makes every gradient here checkable against central finite
differences (the test suite and the oracle gate do this), or float32, the
dtype ``fit`` trains in.  The logits are cast to float64 before the softmax,
so probabilities and everything computed from them are float64 either way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Floor for log-probabilities inside the cross entropy; matches the count
# loss clamp so saturated losses stay finite with the descent direction intact.
MIN_PROB = math.exp(-700.0)

# elements per row block of an optimizer step: its scratch rows stay in cache
_STEP_BLOCK = 16384


def _checked_widths(widths) -> tuple[int, ...]:
    """Layer widths as ints: input, hidden..., output, all positive."""
    widths = tuple(int(w) for w in widths)
    if len(widths) < 2 or any(w < 1 for w in widths):
        raise ValueError(f"widths must list >= 2 positive layer sizes, got {widths}")
    return widths


@dataclass
class Mlp:
    """Fully connected ReLU net; weights[l] maps width l to width l+1."""

    widths: tuple[int, ...]
    weights: list[np.ndarray]
    biases: list[np.ndarray]

    @classmethod
    def init(cls, widths, rng: np.random.Generator, dtype=np.float64) -> "Mlp":
        """He-style uniform fan-in initialization, biases at zero.

        The weights are float64 uniforms cast to ``dtype``, so every dtype
        consumes the same draws from ``rng``.
        """
        widths = _checked_widths(widths)
        weights, biases = [], []
        for fan_in, fan_out in zip(widths, widths[1:]):
            bound = math.sqrt(6.0 / fan_in)
            w = rng.uniform(-bound, bound, size=(fan_in, fan_out))
            weights.append(w.astype(dtype, copy=False))
            biases.append(np.zeros(fan_out, dtype=dtype))
        return cls(widths=widths, weights=weights, biases=biases)

    @property
    def dtype(self) -> np.dtype:
        """The dtype of every parameter and activation."""
        return self.weights[0].dtype

    def parameters(self) -> list[np.ndarray]:
        out = []
        for w, b in zip(self.weights, self.biases):
            out.append(w)
            out.append(b)
        return out


def softmax(logits: np.ndarray) -> np.ndarray:
    """Row softmax with max-shift, safe for logits of any magnitude."""
    shifted = logits - np.max(logits, axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / np.sum(e, axis=1, keepdims=True)


def forward(model: Mlp, X: np.ndarray) -> tuple[list[np.ndarray], np.ndarray]:
    """(hidden activations, row-softmax probabilities) for a batch.

    ``X`` is cast to the model's dtype (no copy if it has it already), and so
    are the activations: hidden[l] is the ReLU output of hidden layer l, so
    hidden[-1] is the embedding the last layer classifies (the list is empty
    without hidden layers); ``backward`` takes the list as returned instead of
    recomputing it.  The logits are cast to float64, so the probabilities
    are float64 whatever the model's dtype.
    """
    X = np.asarray(X, dtype=model.dtype)
    if X.ndim != 2 or X.shape[1] != model.widths[0]:
        raise ValueError(f"expected features of width {model.widths[0]}")
    hidden = []
    h = X
    for w, b in zip(model.weights[:-1], model.biases[:-1]):
        h = np.maximum(h @ w + b, 0.0)
        hidden.append(h)
    logits = h @ model.weights[-1] + model.biases[-1]
    return hidden, softmax(logits.astype(np.float64, copy=False))


def reweighted_ce(probs: np.ndarray, weights: np.ndarray) -> tuple[float, np.ndarray, bool]:
    """Soft-target cross entropy and its gradient w.r.t. the logits.

    loss = -(1/n) sum_ij w_ij log p_ij with w row-stochastic; the matching
    logit gradient is the classic (probs - weights) / n.  Probabilities that
    underflowed to zero under positive weight are clamped; the returned flag
    reports that saturation.
    """
    probs = np.asarray(probs, dtype=np.float64)
    weights = np.asarray(weights, dtype=np.float64)
    if probs.shape != weights.shape:
        raise ValueError("probs and weights must have equal shapes")
    n = probs.shape[0]
    support = weights > 0.0
    saturated = bool(np.any(probs[support] < MIN_PROB))
    logp = np.where(support, np.log(np.maximum(probs, MIN_PROB)), 0.0)
    loss = float(-np.sum(weights * logp) / n)
    grad_logits = (probs - weights) / n
    return loss, grad_logits, saturated


def backward(
    model: Mlp, X: np.ndarray, hidden: list[np.ndarray], grad_logits: np.ndarray
) -> list[np.ndarray]:
    """Parameter gradients (same layout and dtype as model.parameters()).

    ``hidden`` is the activation list ``forward`` returned for this ``X``.
    ``X`` and the float64 ``grad_logits`` are cast to the model's dtype; an
    ``X`` that has it already is used as it is, not copied.
    """
    inputs = [np.asarray(X, dtype=model.dtype), *hidden]
    delta = np.asarray(grad_logits, dtype=model.dtype)
    grads: list[np.ndarray] = [None] * (2 * len(model.weights))
    for l in range(len(model.weights) - 1, -1, -1):
        grads[2 * l] = inputs[l].T @ delta
        grads[2 * l + 1] = delta.sum(axis=0)
        if l > 0:
            delta = np.where(inputs[l] > 0.0, delta @ model.weights[l].T, 0.0)
    return grads


def _step_blocks(params, count: int) -> list[list[tuple]]:
    """Per parameter, its row blocks as (row slice, ``count`` scratch views).

    A block holds about _STEP_BLOCK elements (at least one row).  The scratch
    rows are allocated once, in the parameters' dtype, to the size of the
    largest block, and every block's views share them.
    """
    slices = []
    for p in params:
        rows = max(1, _STEP_BLOCK // (p.size // len(p)))
        slices.append([slice(r, r + rows) for r in range(0, len(p), rows)])
    size = max(p[b[0]].size for p, b in zip(params, slices))
    bufs = [np.empty(size, dtype=params[0].dtype) for _ in range(count)]

    def views(block: np.ndarray) -> tuple:
        return tuple(buf[: block.size].reshape(block.shape) for buf in bufs)

    return [[(rows, *views(p[rows])) for rows in b] for p, b in zip(params, slices)]


def _scalars(params, *values: float) -> tuple:
    """``values`` as scalars of the parameters' dtype.

    A ufunc rounds a Python float operand to a float32 array's dtype anyway,
    so the results are the same bits; but it checks that conversion on every
    call, which costs more than the arithmetic on a small block.
    """
    cast = params[0].dtype.type
    return tuple(cast(v) for v in values)


class Sgd:
    """Plain gradient descent; weight decay enters as an L2 gradient term.

    A step evaluates ``p -= lr * (g + wd * p)`` in place, one row block at a
    time through one scratch row, so no step after the first allocates, and
    the parameters are bitwise equal to the plain expression.
    """

    def __init__(self, lr: float = 1e-3, weight_decay: float = 0.0):
        self.lr = lr
        self.weight_decay = weight_decay
        self._blocks: list[list[tuple]] | None = None

    def step(self, model: Mlp, grads) -> Mlp:
        params = model.parameters()
        if self._blocks is None:
            self._blocks = _step_blocks(params, 1)
        wd, lr = _scalars(params, self.weight_decay, self.lr)
        for p, g, blocks in zip(params, grads, self._blocks, strict=True):
            for rows, a in blocks:
                pb = p[rows]
                np.multiply(pb, wd, out=a)
                np.add(g[rows], a, out=a)
                np.multiply(a, lr, out=a)
                np.subtract(pb, a, out=pb)
        return model


class Adam:
    """First/second-moment adaptive update with bias correction.

    A step evaluates the textbook update below in place, one row block at a
    time through a pair of scratch rows, with the same operations in the same
    order.  No step after the first allocates, and the parameters are
    bitwise equal to the expressions::

        g = g + wd * p
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * (g * g)
        p -= lr * (m / c1) / (sqrt(v / c2) + eps)   # c = 1 - beta ** t
    """

    def __init__(
        self,
        lr: float = 1e-3,
        weight_decay: float = 0.0,
        betas: tuple[float, float] = (0.9, 0.999),
        eps: float = 1e-8,
    ):
        self.lr = lr
        self.weight_decay = weight_decay
        self.betas = betas
        self.eps = eps
        self.t = 0
        self.m: list[np.ndarray] | None = None
        self.v: list[np.ndarray] | None = None
        self._blocks: list[list[tuple]] | None = None

    def step(self, model: Mlp, grads) -> Mlp:
        params = model.parameters()
        if self.m is None:
            self.m = [np.zeros_like(p) for p in params]
            self.v = [np.zeros_like(p) for p in params]
            self._blocks = _step_blocks(params, 2)
        self.t += 1
        b1, b2 = self.betas
        wd, lr, eps, b1, b2, d1, d2, c1, c2 = _scalars(
            params, self.weight_decay, self.lr, self.eps, b1, b2, 1.0 - b1, 1.0 - b2,
            1.0 - b1**self.t, 1.0 - b2**self.t,
        )
        for p, g, m, v, blocks in zip(params, grads, self.m, self.v, self._blocks, strict=True):
            for rows, a, b in blocks:
                pb, mb, vb = p[rows], m[rows], v[rows]
                np.multiply(pb, wd, out=a)
                np.add(g[rows], a, out=a)  # a = g
                np.multiply(mb, b1, out=mb)
                np.multiply(a, d1, out=b)
                np.add(mb, b, out=mb)
                np.multiply(a, a, out=a)
                np.multiply(a, d2, out=a)
                np.multiply(vb, b2, out=vb)
                np.add(vb, a, out=vb)
                np.divide(mb, c1, out=a)
                np.multiply(a, lr, out=a)  # a = lr * m_hat
                np.divide(vb, c2, out=b)
                np.sqrt(b, out=b)
                np.add(b, eps, out=b)
                np.divide(a, b, out=a)
                np.subtract(pb, a, out=pb)
        return model


# optimizer classes by name; the first is the default
OPTIMIZERS = {"adam": Adam, "sgd": Sgd}


def make_optimizer(name: str, lr: float, weight_decay: float):
    if name not in OPTIMIZERS:
        raise ValueError(f"unknown optimizer {name!r}")
    return OPTIMIZERS[name](lr=lr, weight_decay=weight_decay)


# parameter dtypes by their field in the ``#mlp`` header
_CHECKPOINT_DTYPES = {"dtype=float64": np.float64, "dtype=float32": np.float32}


def save_mlp(model: Mlp, path) -> None:
    """Text checkpoint: width and dtype header, then per layer the weight rows
    and bias.

    Each value is the shortest text that round-trips in the model's dtype
    (``repr`` of a Python float, ``str`` of a numpy float32), so loading
    restores bitwise-identical parameters of the same dtype.
    """
    dtype_field = f"dtype={model.dtype.name}"
    if dtype_field not in _CHECKPOINT_DTYPES:
        raise ValueError(f"cannot checkpoint {model.dtype.name} parameters")
    text = (lambda v: repr(float(v))) if model.dtype == np.float64 else str
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"#mlp widths={','.join(str(w) for w in model.widths)} {dtype_field}\n")
        for w, b in zip(model.weights, model.biases):
            for row in w:
                fh.write(" ".join(map(text, row)) + "\n")
            fh.write(" ".join(map(text, b)) + "\n")


def load_mlp(path) -> Mlp:
    """A checkpoint ``save_mlp`` wrote, in the dtype its header names; a
    header without a dtype (checkpoints before 0.3.0) is float64."""
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
        if not header.startswith("#mlp widths="):
            raise ValueError("not an MLP checkpoint: missing '#mlp widths=' header")
        spec, _, dtype_field = header.removeprefix("#mlp widths=").partition(" ")
        widths = _checked_widths(spec.split(","))
        dtype = _CHECKPOINT_DTYPES.get(dtype_field or "dtype=float64")
        if dtype is None:
            raise ValueError(f"unknown checkpoint dtype field {dtype_field!r}")
        weights, biases = [], []
        for fan_in, fan_out in zip(widths, widths[1:]):
            w = np.empty((fan_in, fan_out), dtype=dtype)
            for r in range(fan_in):
                row = [float(tok) for tok in fh.readline().split()]
                if len(row) != fan_out:
                    raise ValueError("checkpoint row width mismatch")
                w[r] = row
            b = [float(tok) for tok in fh.readline().split()]
            if len(b) != fan_out:
                raise ValueError("checkpoint bias width mismatch")
            weights.append(w)
            biases.append(np.array(b, dtype=dtype))
        if fh.readline() != "":
            raise ValueError("trailing content after checkpoint parameters")
    return Mlp(widths=widths, weights=weights, biases=biases)
