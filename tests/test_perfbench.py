"""The benchmark's tracing contract: one traced worker run on a tiny input.

perfbench/worker.py monkey-patches the names cleanse.trainer binds, so it
runs in a subprocess here; nothing it patches can leak into other tests.
"""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

from cleanse.data import (
    PartialDataset,
    gaussian_clusters,
    generate_synthetic,
    split,
    write_pll_file,
)

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
SRC = Path(__file__).resolve().parents[1] / "src"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", PERFBENCH / "spans.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_worker_accounts_for_fit(tmp_path):
    feats, labels = gaussian_clusters(96, 3, seed=1)
    cands = generate_synthetic(labels, 3, q=0.5, seed=2)
    train, test = split(PartialDataset(feats, cands, 3, hidden_truth=labels), 0.25, seed=3)
    write_pll_file(train, tmp_path / "train.pll")
    write_pll_file(test, tmp_path / "test.pll")
    spec = dict(
        src=str(SRC), train=str(tmp_path / "train.pll"), test=str(tmp_path / "test.pll"),
        config=dict(epochs=2, batch_size=16, hidden=[4], k=3, knn_scope="batch", seed=0),
        trace=True, run_id="smoke", result=str(tmp_path / "result.json"),
        cpus=sorted(os.sched_getaffinity(0))[:1],
    )
    (tmp_path / "spec.json").write_text(json.dumps(spec))
    proc = subprocess.run(
        [sys.executable, str(PERFBENCH / "worker.py"), str(tmp_path / "spec.json")],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads((tmp_path / "result.json").read_text())
    assert result["error"] is None, result["error"]
    assert len(result["epochs"]) == 2
    names = {s["name"] for s in result["spans"]}
    for name in ("reweight.knn_search", "reweight.build_weight_matrix",
                 "countloss.batch_intervals", "countloss.count_loss", "trainer.fit"):
        assert name in names
    spans_module = _load_spans()
    assert spans_module.fit_accounting_gap(result["spans"]) < 1e-9

    # gemm_flops counts backward rows as len(backward's second argument),
    # so that argument must stay the batch input X
    widths, epochs = (train.d, 4, train.m), 2

    def flops(name):
        return sum(s["attrs"]["flops"] for s in result["spans"] if s["name"] == name)

    n_train = result["n_train"]
    assert flops("neural.backward") == epochs * spans_module._gemm_flops(
        widths, n_train, backward=True)
    rows_forward = epochs * n_train + epochs * test.n  # every epoch is evaluated
    assert flops("neural.forward") == spans_module._gemm_flops(
        widths, rows_forward, backward=False)
