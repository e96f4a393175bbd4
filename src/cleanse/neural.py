"""Minimal feed-forward classifier with exact manual gradients.

Parameters and activations share one dtype, chosen at ``Mlp.init``: float64
by default, which makes every gradient here checkable against central finite
differences (the test suite and the oracle gate do this), or float32, the
dtype ``fit`` trains in.  The logits are cast to float64 before the softmax,
so probabilities and everything computed from them are float64 either way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

# Floor for log-probabilities inside the cross entropy; matches the count
# loss clamp so saturated losses stay finite with the descent direction intact.
MIN_PROB = math.exp(-700.0)

# elements per block of an optimizer step: its scratch stays in cache.  On a
# 2-core Xeon VM (4 MiB L2 per core) an Adam step at mnist widths (784, 300,
# 300, 10) in float32 took 0.82-0.88x its time at 16384; 49152 to 131072
# read within 2% of each other, and 2^20 was slower than 16384
_STEP_BLOCK = 65536


def _checked_widths(widths) -> tuple[int, ...]:
    """Layer widths as ints: input, hidden..., output, all positive."""
    widths = tuple(int(w) for w in widths)
    if len(widths) < 2 or any(w < 1 for w in widths):
        raise ValueError(f"widths must list >= 2 positive layer sizes, got {widths}")
    return widths


def _views(buffer: np.ndarray, shapes) -> list[np.ndarray]:
    """C-ordered views of consecutive segments of the 1-D ``buffer``, one per shape."""
    views, start = [], 0
    for shape in shapes:
        size = math.prod(shape)
        views.append(buffer[start : start + size].reshape(shape))
        start += size
    return views


def _zero_parameters(widths: tuple[int, ...], dtype) -> tuple[list, list]:
    """(weights, biases) of ``widths``, all zero, as zero-stride arrays: the
    ``Mlp`` built from them allocates only its own buffer."""
    zero = np.zeros((), dtype=dtype)
    pairs = list(zip(widths, widths[1:]))
    return ([np.broadcast_to(zero, pair) for pair in pairs],
            [np.broadcast_to(zero, (fan_out,)) for _, fan_out in pairs])


@dataclass
class Mlp:
    """Fully connected ReLU net; weights[l] maps width l to width l+1.

    Every parameter is a C-ordered view of one contiguous buffer, ``flat``,
    in ``parameters()`` order.  The constructor copies the arrays it is given
    into a new buffer of their common dtype; the optimizer steps that buffer,
    so a parameter is changed in place, never replaced.
    """

    widths: tuple[int, ...]
    weights: list[np.ndarray]
    biases: list[np.ndarray]
    flat: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        given = self.parameters()
        self.flat = np.empty(sum(p.size for p in given), dtype=np.result_type(*given))
        views = _views(self.flat, [p.shape for p in given])
        for view, p in zip(views, given):
            view[...] = p
        self.weights, self.biases = views[0::2], views[1::2]

    @classmethod
    def init(cls, widths, rng: np.random.Generator, dtype=np.float64) -> "Mlp":
        """He-style uniform fan-in initialization, biases at zero.

        The weights are float64 uniforms cast to ``dtype``, so every dtype
        consumes the same draws from ``rng``.
        """
        widths = _checked_widths(widths)
        model = cls(widths, *_zero_parameters(widths, dtype))
        for w in model.weights:
            bound = math.sqrt(6.0 / len(w))
            w[...] = rng.uniform(-bound, bound, size=w.shape)
        return model

    @property
    def dtype(self) -> np.dtype:
        """The dtype of every parameter and activation."""
        return self.flat.dtype

    def parameters(self) -> list[np.ndarray]:
        out = []
        for w, b in zip(self.weights, self.biases):
            out.append(w)
            out.append(b)
        return out

    def gradient_buffer(self) -> list[np.ndarray]:
        """Uninitialized arrays laid out like ``parameters()``: views of one
        new buffer of ``flat``'s size and dtype, for ``backward``'s ``out``."""
        return _views(np.empty_like(self.flat), [p.shape for p in self.parameters()])


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
    model: Mlp,
    X: np.ndarray,
    hidden: list[np.ndarray],
    grad_logits: np.ndarray,
    out: list[np.ndarray] | None = None,
) -> list[np.ndarray]:
    """Parameter gradients (same layout and dtype as model.parameters()).

    ``hidden`` is the activation list ``forward`` returned for this ``X``.
    ``X`` and the float64 ``grad_logits`` are cast to the model's dtype; an
    ``X`` that has it already is used as it is, not copied.  Given ``out``,
    arrays laid out like ``model.parameters()`` (``Mlp.gradient_buffer``
    makes them), each gradient is written into its array, with the same
    bits, and ``out`` is returned; otherwise new arrays are.
    """
    inputs = [np.asarray(X, dtype=model.dtype), *hidden]
    delta = np.asarray(grad_logits, dtype=model.dtype)
    grads = [None] * (2 * len(model.weights)) if out is None else out
    for l in range(len(model.weights) - 1, -1, -1):
        grads[2 * l] = np.matmul(inputs[l].T, delta, out=grads[2 * l])
        grads[2 * l + 1] = delta.sum(axis=0, out=grads[2 * l + 1])
        if l > 0:
            delta = _relu_backward(delta @ model.weights[l].T, inputs[l])
    return grads


def _relu_backward(grad: np.ndarray, activation: np.ndarray) -> np.ndarray:
    """``np.where(activation > 0, grad, 0)`` with the same bits, in place.

    ``grad`` is a new C-ordered product; its bits are ANDed with a 0/-1
    integer mask of the same width, which keeps an active unit's value as
    it is (-0, inf and nan included) and makes an inactive one +0.  That
    takes about a seventh of ``np.where``'s time on a 64 x 300 float32 batch.
    """
    bits = np.dtype(f"i{grad.itemsize}")
    mask = (activation > 0.0).astype(bits)
    np.negative(mask, out=mask)
    view = grad.view(bits)
    np.bitwise_and(view, mask, out=view)
    return grad


class _FlatStep:
    """The blocks of ``_STEP_BLOCK`` elements (the last may be shorter) the
    optimizer steps a model's flat buffer in, with two scratch views per
    block.

    The scratch is allocated once, in the parameters' dtype, to the size of
    the largest block; every block's views share it.  ``blocks`` lists
    (buffer slice, scratch a, scratch b, segments).  A segment (j, src, dst)
    says that the block's part ``dst`` of ``a`` takes the raveled elements
    ``src`` of gradient j.
    """

    def __init__(self, model: Mlp):
        params = model.parameters()
        self.size = len(params)
        starts = np.cumsum([0, *(p.size for p in params)]).tolist()
        bufs = [np.empty(min(starts[-1], _STEP_BLOCK), dtype=model.dtype) for _ in range(2)]
        self.blocks = []
        for lo in range(0, starts[-1], _STEP_BLOCK):
            hi = min(lo + _STEP_BLOCK, starts[-1])
            scratch = tuple(buf[: hi - lo] for buf in bufs)
            segments = []
            for j, (first, end) in enumerate(zip(starts, starts[1:])):
                a, b = max(lo, first), min(hi, end)
                if a < b:
                    segments.append((j, slice(a - first, b - first), scratch[0][a - lo : b - lo]))
            self.blocks.append((slice(lo, hi), *scratch, segments))

    def gradients(self, grads) -> list[np.ndarray]:
        """``grads`` raveled (views when C-ordered), one per parameter."""
        if len(grads) != self.size:
            raise ValueError(f"expected {self.size} gradients, got {len(grads)}")
        return [g.reshape(-1) for g in grads]

    @staticmethod
    def gradient_into(flat_grads, segments) -> None:
        """Add each segment's gradient elements into its scratch part in place:
        one ``np.add`` per parameter the block covers."""
        for j, src, dst in segments:
            np.add(flat_grads[j][src], dst, out=dst)


def _scalars(dtype, *values: float) -> tuple:
    """``values`` as scalars of ``dtype``.

    A ufunc rounds a Python float operand to a float32 array's dtype anyway,
    so the results are the same bits; but it checks that conversion on every
    call, which costs more than the arithmetic on a small block.
    """
    cast = dtype.type
    return tuple(cast(v) for v in values)


class Adam:
    """First/second-moment adaptive update with bias correction.

    A step evaluates the textbook update below in place over the model's
    flat buffer and flat moment buffers, one block at a time through a pair
    of scratch blocks, with the same operations in the same order.  No step
    after the first allocates, and the parameters are bitwise equal to the
    expressions::

        g = g + wd * p
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * (g * g)
        p -= lr * (m / c1) / (sqrt(v / c2) + eps)   # c = 1 - beta ** t

    ``m`` and ``v`` list the moments per parameter, as views of those buffers.
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
        self._moments: np.ndarray | None = None
        self._plan: _FlatStep | None = None

    def step(self, model: Mlp, grads) -> Mlp:
        if self._plan is None:
            self._moments = np.zeros((2, model.flat.size), dtype=model.dtype)
            shapes = [p.shape for p in model.parameters()]
            self.m, self.v = (_views(row, shapes) for row in self._moments)
            self._plan = _FlatStep(model)
        flat_grads = self._plan.gradients(grads)
        self.t += 1
        b1, b2 = self.betas
        wd, lr, eps, b1, b2, d1, d2, c1, c2 = _scalars(
            model.dtype, self.weight_decay, self.lr, self.eps, b1, b2, 1.0 - b1, 1.0 - b2,
            1.0 - b1**self.t, 1.0 - b2**self.t,
        )
        m, v = self._moments
        for rows, a, b, segments in self._plan.blocks:
            pb, mb, vb = model.flat[rows], m[rows], v[rows]
            np.multiply(pb, wd, out=a)
            _FlatStep.gradient_into(flat_grads, segments)  # a = g
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


def make_optimizer(lr: float, weight_decay: float) -> Adam:
    """The optimizer ``fit`` steps: Adam with its default betas and eps."""
    return Adam(lr=lr, weight_decay=weight_decay)


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
        model = Mlp(widths, *_zero_parameters(widths, dtype))
        for w, b in zip(model.weights, model.biases):
            for r in range(len(w)):
                row = [float(tok) for tok in fh.readline().split()]
                if len(row) != w.shape[1]:
                    raise ValueError("checkpoint row width mismatch")
                w[r] = row
            row = [float(tok) for tok in fh.readline().split()]
            if len(row) != len(b):
                raise ValueError("checkpoint bias width mismatch")
            b[:] = row
        if fh.readline() != "":
            raise ValueError("trailing content after checkpoint parameters")
    return model
