"""In-memory spans around the calls into each cleanse layer.

``install`` replaces the public names that ``cleanse.trainer`` binds (plus
the optimizer's ``step``, ``PartialDataset.subset`` and ``fit`` itself) with
wrappers that record one span per call: name, start, end, parent span and
run id.  Spans stay in memory until the workload process writes them out;
``layer_metrics`` turns a process's spans into the per-layer metrics.

Nothing in ``src/`` changes: the wrappers sit between the trainer and the
functions it calls, exactly where the untraced run calls them directly.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict

# Wrapped names as cleanse.trainer binds them, with the layer each belongs to.
TRAINER_NAMES = {
    "knn_search": "reweight",
    "enhanced_label": "reweight",
    "build_weight_matrix": "reweight",
    "batch_intervals": "countloss",
    "count_loss": "countloss",
    "count_log_pmf": "countloss",
    "interval_log_prob": "countloss",
    "forward": "neural",
    "backward": "neural",
    "reweighted_ce": "neural",
    "evaluate": "trainer",
    "fit": "trainer",
}


class Tracer:
    """Span recorder for one workload process (single-threaded caller)."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self._stack: list[int] = []

    def add(self, name: str, start: float, end: float) -> None:
        """Record a finished span that was timed by the caller."""
        parent = self._stack[-1] if self._stack else None
        self.spans.append(
            dict(id=len(self.spans), name=name, start=start, end=end,
                 parent=parent, run=self.run_id, attrs={})
        )

    def wrap(self, name: str, fn, attrs=None):
        """``fn`` recording a span per call; ``attrs(args, result)`` adds counts."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = dict(id=len(self.spans), name=name, start=time.monotonic(),
                        end=None, parent=self._stack[-1] if self._stack else None,
                        run=self.run_id, attrs={})
            self.spans.append(span)
            self._stack.append(span["id"])
            try:
                out = fn(*args, **kwargs)
            finally:
                span["end"] = time.monotonic()
                self._stack.pop()
            if attrs is not None:
                span["attrs"] = attrs(args, out)
            return out

        return traced


def _gemm_flops(widths, rows: int, backward: bool) -> int:
    """Multiply-add flops the layer maths needs for ``rows`` instances.

    forward: X W per layer.  backward: the weight gradients (A^T delta) per
    layer plus the delta propagation (delta W^T) below the top layer.  The
    count is what the maths requires, so it stays fixed if the code stops
    recomputing activations.
    """
    pairs = [a * b for a, b in zip(widths, widths[1:])]
    if not backward:
        return 2 * rows * sum(pairs)
    return 2 * rows * (sum(pairs) + sum(pairs[1:]))


def install(tracer: Tracer) -> None:
    """Route cleanse.trainer's calls into each layer through ``tracer``."""
    trainer = importlib.import_module("cleanse.trainer")
    data = importlib.import_module("cleanse.data")
    reweight = importlib.import_module("cleanse.reweight")

    # Batch datasets by id -> the view rows they were cut from, so a
    # batch-local (row, neighbour list) can be named in view rows.
    origin: dict[int, object] = {}
    seen: set = set()

    def enhanced_attrs(args, out):
        i, dataset, neighbors = args[0], args[1], args[2]
        rows = origin.get(id(dataset))
        if rows is None:
            key = (int(i), neighbors.indices.tobytes())
        else:
            key = (int(rows[i]), rows[neighbors.indices].tobytes())
        repeat = key in seen
        seen.add(key)
        return {"repeat": repeat, "none": out == reweight.NO_ENHANCEMENT}

    def count_loss_attrs(args, out):
        n, m = args[0].shape
        return {"cells": m * n * (n + 1) // 2, "saturated": bool(out.saturated)}

    def count_log_pmf_attrs(args, out):
        n = len(args[0])
        return {"cells": n * (n + 1) // 2}

    def forward_attrs(args, out):
        return {"flops": _gemm_flops(args[0].widths, len(args[1]), backward=False)}

    def backward_attrs(args, out):
        return {"flops": _gemm_flops(args[0].widths, len(args[1]), backward=True)}

    attrs = {
        "enhanced_label": enhanced_attrs,
        "count_loss": count_loss_attrs,
        "count_log_pmf": count_log_pmf_attrs,
        "forward": forward_attrs,
        "backward": backward_attrs,
    }
    for name, layer in TRAINER_NAMES.items():
        fn = getattr(trainer, name)
        setattr(trainer, name, tracer.wrap(f"{layer}.{name}", fn, attrs.get(name)))

    make_optimizer = trainer.make_optimizer

    def traced_make_optimizer(*args, **kwargs):
        opt = make_optimizer(*args, **kwargs)
        opt.step = tracer.wrap("neural.optimizer_step", opt.step)
        return opt

    trainer.make_optimizer = traced_make_optimizer

    subset = data.PartialDataset.subset
    traced_subset = tracer.wrap("data.subset", subset)

    def subset_with_origin(self, indices):
        out = traced_subset(self, indices)
        origin[id(out)] = indices
        return out

    data.PartialDataset.subset = subset_with_origin


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span id -> duration minus the durations of its direct children."""
    covered: dict[int, float] = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            covered[s["parent"]] += s["end"] - s["start"]
    return {s["id"]: s["end"] - s["start"] - covered[s["id"]] for s in spans}


# Per-layer metrics: name -> unit.  Times are self times summed over the
# traced process; counts are summed over it.
LAYER_METRICS = {
    "cleanse.import_s": "s",
    "data.read_pll_file_s": "s",
    "data.subset_s": "s",
    "data.subset_calls": "count",
    "reweight.knn_search_s": "s",
    "reweight.knn_search_setup_s": "s",
    "reweight.knn_search_epoch_s": "s",
    "reweight.knn_search_calls": "count",
    "reweight.enhanced_label_s": "s",
    "reweight.enhanced_label_calls": "count",
    "reweight.enhanced_label_repeat_share": "fraction",
    "reweight.enhanced_label_none_share": "fraction",
    "reweight.build_weight_matrix_s": "s",
    "countloss.batch_intervals_s": "s",
    "countloss.count_loss_s": "s",
    "countloss.count_loss_calls": "count",
    "countloss.count_loss_saturated_share": "fraction",
    "countloss.count_log_pmf_s": "s",
    "countloss.count_log_pmf_calls": "count",
    "countloss.interval_log_prob_s": "s",
    "countloss.dp_s": "s",
    "countloss.dp_cells": "count",
    "neural.forward_s": "s",
    "neural.backward_s": "s",
    "neural.reweighted_ce_s": "s",
    "neural.optimizer_step_s": "s",
    "neural.gemm_flops": "flop",
    "trainer.evaluate_s": "s",
    "trainer.fit_s": "s",
    "trainer.fit_self_s": "s",
    "trace.overhead_s": "s",
}


def layer_metrics(spans: list[dict], epoch0_start: float) -> dict[str, float]:
    """Per-layer metrics of one traced process (all but ``trace.overhead_s``).

    ``epoch0_start`` (time.monotonic, like the spans) splits k-NN calls made
    during setup from those made inside epochs.
    """
    own = self_times(spans)
    by_name: dict[str, list[dict]] = defaultdict(list)
    for s in spans:
        by_name[s["name"]].append(s)

    def secs(name, keep=lambda s: True):
        return sum(own[s["id"]] for s in by_name[name] if keep(s))

    def calls(name):
        return len(by_name[name])

    def share(name, attr):
        group = by_name[name]
        return sum(1 for s in group if s["attrs"][attr]) / len(group) if group else 0.0

    def total(name, attr):
        return sum(s["attrs"][attr] for s in by_name[name])

    in_setup = lambda s: s["start"] < epoch0_start  # noqa: E731
    (fit,) = by_name["trainer.fit"]
    return {
        "cleanse.import_s": secs("cleanse.import"),
        "data.read_pll_file_s": secs("data.read_pll_file"),
        "data.subset_s": secs("data.subset"),
        "data.subset_calls": calls("data.subset"),
        "reweight.knn_search_s": secs("reweight.knn_search"),
        "reweight.knn_search_setup_s": secs("reweight.knn_search", in_setup),
        "reweight.knn_search_epoch_s": secs("reweight.knn_search", lambda s: not in_setup(s)),
        "reweight.knn_search_calls": sum(1 for s in by_name["reweight.knn_search"] if not in_setup(s)),
        "reweight.enhanced_label_s": secs("reweight.enhanced_label"),
        "reweight.enhanced_label_calls": calls("reweight.enhanced_label"),
        "reweight.enhanced_label_repeat_share": share("reweight.enhanced_label", "repeat"),
        "reweight.enhanced_label_none_share": share("reweight.enhanced_label", "none"),
        "reweight.build_weight_matrix_s": secs("reweight.build_weight_matrix"),
        "countloss.batch_intervals_s": secs("countloss.batch_intervals"),
        "countloss.count_loss_s": secs("countloss.count_loss"),
        "countloss.count_loss_calls": calls("countloss.count_loss"),
        "countloss.count_loss_saturated_share": share("countloss.count_loss", "saturated"),
        "countloss.count_log_pmf_s": secs("countloss.count_log_pmf"),
        "countloss.count_log_pmf_calls": calls("countloss.count_log_pmf"),
        "countloss.interval_log_prob_s": secs("countloss.interval_log_prob"),
        "countloss.dp_s": secs("countloss.count_loss") + secs("countloss.count_log_pmf")
        + secs("countloss.interval_log_prob"),
        "countloss.dp_cells": total("countloss.count_loss", "cells")
        + total("countloss.count_log_pmf", "cells"),
        "neural.forward_s": secs("neural.forward"),
        "neural.backward_s": secs("neural.backward"),
        "neural.reweighted_ce_s": secs("neural.reweighted_ce"),
        "neural.optimizer_step_s": secs("neural.optimizer_step"),
        "neural.gemm_flops": total("neural.forward", "flops") + total("neural.backward", "flops"),
        "trainer.evaluate_s": secs("trainer.evaluate"),
        "trainer.fit_s": fit["end"] - fit["start"],
        "trainer.fit_self_s": own[fit["id"]],
    }


def fit_accounting_gap(spans: list[dict]) -> float:
    """|fit wall - sum of self times in fit's subtree| / fit wall.

    Zero up to float rounding when every span nests properly inside ``fit``.
    """
    own = self_times(spans)
    children: dict[int, list[int]] = defaultdict(list)
    for s in spans:
        if s["parent"] is not None:
            children[s["parent"]].append(s["id"])
    (fit,) = [s for s in spans if s["name"] == "trainer.fit"]
    todo, total = [fit["id"]], 0.0
    while todo:
        sid = todo.pop()
        total += own[sid]
        todo.extend(children[sid])
    wall = fit["end"] - fit["start"]
    return abs(wall - total) / wall
