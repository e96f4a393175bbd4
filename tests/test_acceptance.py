"""Acceptance suite: one test per release criterion, each printing a
pass/fail line.  Run with `pytest tests/test_acceptance.py -v -s`.

The desk benchmark used by the learning criteria is 3 separable 2-D
Gaussian clusters, 600 train / 200 test, batch 64, a (2, 32, 32, 3) MLP,
k=20 neighbors over the whole training set.
"""

import contextlib
import math
import os
import subprocess
import sys
import time

import numpy as np
import pytest

from cleanse.checks import (
    check_count_loss_grad,
    check_count_pmf,
    check_interval_probs,
    check_trainer_grad,
)
from cleanse.countloss import count_log_pmf, logsumexp
from cleanse.data import PartialDataset, gaussian_clusters, generate_synthetic, split
from cleanse.stats import RankTable, bonferroni_dunn_cd, friedman
from cleanse.trainer import TrainConfig, fit, summarize

from test_trainer import baseline_fit


@contextlib.contextmanager
def report(number, description):
    try:
        yield
    except BaseException:
        print(f"[FAIL] criterion {number}: {description}")
        raise
    print(f"[PASS] criterion {number}: {description}")


def desk_benchmark(seed, q):
    feats, labels = gaussian_clusters(800, 3, seed=100 + seed)
    cands = generate_synthetic(labels, 3, q=q, seed=200 + seed)
    ds = PartialDataset(features=feats, candidates=cands, m=3, hidden_truth=labels)
    return split(ds, 0.25, seed=300 + seed)


def desk_config(seed, temperature, lam, epochs):
    return TrainConfig(
        epochs=epochs,
        batch_size=64,
        hidden=(32, 32),
        k=20,
        knn_scope="global",
        temperature=temperature,
        lam=lam,
        seed=seed,
    )


def desk_accuracy(seed, temperature, lam, q, epochs):
    train, test = desk_benchmark(seed, q)
    _, history = fit(train, test, desk_config(seed, temperature, lam, epochs))
    return summarize(history, 10)[0]


def test_criterion_1_count_loss_oracle_equivalence():
    with report(1, "count pmf and interval probabilities match 2^n enumeration"):
        t0 = time.perf_counter()
        rng = np.random.default_rng(1001)
        pmf = check_count_pmf(rng, cases=200, max_n=12)
        ivs = check_interval_probs(rng, cases=200, max_n=12)
        elapsed = time.perf_counter() - t0
        assert pmf.max_deviation <= 1e-10, pmf
        assert ivs.max_deviation <= 1e-10, ivs
        assert elapsed < 10.0, f"oracle comparison took {elapsed:.1f}s"


def test_criterion_2_gradient_correctness():
    with report(2, "count-loss and full-chain gradients match finite differences"):
        t0 = time.perf_counter()
        rng = np.random.default_rng(1002)
        cg = check_count_loss_grad(rng, cases=50)
        tg = check_trainer_grad(rng, cases=50)
        elapsed = time.perf_counter() - t0
        assert cg.max_deviation <= 1e-6, cg
        assert tg.max_deviation <= 1e-4, tg
        assert elapsed < 60.0, f"gradient checks took {elapsed:.1f}s"


def test_criterion_3_degeneracy_identity():
    with report(3, "T=1, lambda=0 equals the uniform-candidate baseline exactly"):
        train, test = desk_benchmark(seed=0, q=0.5)
        config = desk_config(seed=0, temperature=1.0, lam=0.0, epochs=15)
        model, history = fit(train, test, config)
        ref_model, ref_losses, ref_acc = baseline_fit(train, test, config)
        assert [h.reweight_loss for h in history] == ref_losses
        assert history[-1].test_accuracy == ref_acc
        for a, b in zip(model.parameters(), ref_model.parameters()):
            np.testing.assert_array_equal(a, b)


def test_criterion_4_statistics_reproduction():
    with report(4, "eight-algorithm rank table yields F_F 69.4 and CD 1.864"):
        ranks = np.array([3.56, 3.00, 3.16, 5.36, 6.24, 6.52, 7.08, 1.12])
        _, f_f = friedman(RankTable(k=8, n_cases=25, avg_ranks=ranks))
        cd = bonferroni_dunn_cd(2.690, 8, 25)
        assert abs(f_f - 69.4) <= 0.2, f_f
        assert abs(cd - 1.864) <= 0.001, cd


def test_criterion_5_desk_scale_learning():
    with report(5, "q=0.5 Gaussian benchmark reaches 98% in 50 epochs, full >= baseline"):
        seeds = range(5)
        full = [desk_accuracy(s, 3.0, 1e-3, q=0.5, epochs=50) for s in seeds]
        base = [desk_accuracy(s, 1.0, 0.0, q=0.5, epochs=50) for s in seeds]
        mean_full, mean_base = float(np.mean(full)), float(np.mean(base))
        assert mean_full >= 0.98, (mean_full, full)
        assert mean_full >= mean_base, (mean_full, mean_base)


MNIST_TRAIN = os.environ.get("CLEANSE_MNIST_TRAIN_PLL")
MNIST_TEST = os.environ.get("CLEANSE_MNIST_TEST_PLL")


@pytest.mark.skipif(
    not (MNIST_TRAIN and MNIST_TEST),
    reason="optional: set CLEANSE_MNIST_TRAIN_PLL / CLEANSE_MNIST_TEST_PLL",
)
def test_criterion_5_optional_mnist_subset():
    from cleanse.data import read_pll_file

    with report("5-optional", "user-supplied MNIST-format subset reaches 90%"):
        train = read_pll_file(MNIST_TRAIN)
        test = read_pll_file(MNIST_TEST)
        common = dict(epochs=50, batch_size=64, hidden=(300, 300), k=10, seed=0)
        _, hist_full = fit(train, test, TrainConfig(temperature=3.0, lam=1e-3, **common))
        _, hist_base = fit(train, test, TrainConfig(temperature=1.0, lam=0.0, **common))
        acc_full = summarize(hist_full, 10)[0]
        acc_base = summarize(hist_base, 10)[0]
        assert acc_full >= 0.90, acc_full
        assert acc_full >= acc_base - 0.002, (acc_full, acc_base)


def test_criterion_6_numerical_stability_stress():
    with report(6, "n=1024 extreme-probability pmf is finite and normalized"):
        p = np.empty(1024)
        p[0::3] = 1e-12
        p[1::3] = 0.5
        p[2::3] = 1.0 - 1e-12
        log_pmf = count_log_pmf(np.log(p))
        assert np.all(np.isfinite(log_pmf))
        assert abs(math.exp(logsumexp(log_pmf)) - 1.0) < 1e-9
        assert abs(logsumexp([-1000.0, -1000.0]) - (-1000.0 + math.log(2.0))) < 1e-12


def test_criterion_7_determinism_across_runs_and_threads(tmp_path):
    with report(7, "identical manifests give byte-identical metrics CSVs (threads 1 and 8)"):
        train = tmp_path / "train.pll"
        test = tmp_path / "test.pll"
        gen = [sys.executable, "-m", "cleanse", "generate", "--gaussian",
               "--classes", "3", "--n", "120", "--q", "0.5", "--seed", "5",
               "-o", str(train), "--test-fraction", "0.25", "--test-out", str(test)]
        subprocess.run(gen, check=True, capture_output=True)

        def train_run(name, threads):
            out = tmp_path / name
            cmd = [sys.executable, "-m", "cleanse", "train", "--train", str(train),
                   "--test", str(test), "--out-dir", str(out), "--epochs", "3",
                   "--batch-size", "32", "--hidden", "8", "--seed", "9",
                   "--threads", str(threads), "--quiet"]
            subprocess.run(cmd, check=True, capture_output=True)
            return (out / "metrics.csv").read_bytes()

        a1 = train_run("a1", threads=1)
        a2 = train_run("a2", threads=1)
        b1 = train_run("b1", threads=8)
        b2 = train_run("b2", threads=8)
        assert a1 == a2
        assert b1 == b2
        assert a1 == b1


def test_criterion_8_ablation_direction():
    with report(8, "q=0.9 ablations order as full >= single component >= baseline"):
        seeds = range(5)
        epochs = 100

        def mean_acc(temperature, lam):
            return float(
                np.mean([desk_accuracy(s, temperature, lam, 0.9, epochs) for s in seeds])
            )

        full = mean_acc(3.0, 1e-3)
        reweight_only = mean_acc(3.0, 0.0)
        count_only = mean_acc(1.0, 1e-3)
        baseline = mean_acc(1.0, 0.0)
        tol = 0.005  # ties allowed within half a point
        summary = (full, reweight_only, count_only, baseline)
        assert full >= reweight_only - tol, summary
        assert full >= count_only - tol, summary
        assert reweight_only >= baseline - tol, summary
        assert count_only >= baseline - tol, summary
