"""Training-loop contracts: degeneracy to the uniform-candidate baseline,
hidden-truth firewall, determinism, metrics identities."""

import math
import time

import numpy as np
import pytest

from cleanse.data import PartialDataset, gaussian_clusters, generate_synthetic, split
from cleanse.neural import Mlp, backward, forward, make_optimizer, reweighted_ce
import cleanse.trainer as trainer_module
from cleanse.trainer import (
    CSV_HEADER,
    EpochMetrics,
    TrainConfig,
    TrainingDiverged,
    epoch_batches,
    evaluate,
    fit,
    read_metrics_csv,
    summarize,
    write_metrics_csv,
)


def make_dataset(n=240, m=3, q=0.5, seed=0, spread=1.0):
    feats, labels = gaussian_clusters(n, m, seed=seed, spread=spread)
    cands = generate_synthetic(labels, m, q=q, seed=seed + 1)
    return PartialDataset(features=feats, candidates=cands, m=m, hidden_truth=labels)


def baseline_fit(train, test, config):
    """Reference run: uniform-candidate cross entropy, no reweighting, no
    count loss.  Mirrors fit's RNG consumption (init, then one permutation
    per epoch) so the degenerate configuration must match it exactly."""
    view = train.strip_truth()
    rng = np.random.default_rng(config.seed)
    model = Mlp.init((view.d, *config.hidden, view.m), rng)
    opt = make_optimizer(config.optimizer, config.lr, config.weight_decay)
    uniform = np.zeros((view.n, view.m))
    for i, cs in enumerate(view.candidates):
        for lab in cs.labels():
            uniform[i, lab] = 1.0 / cs.cardinality()

    losses = []
    for _ in range(config.epochs):
        perm = rng.permutation(view.n)
        total = 0.0
        for batch_idx in epoch_batches(perm, config.batch_size):
            X = view.features[batch_idx]
            _, probs = forward(model, X)
            loss, grad_logits, _ = reweighted_ce(probs, uniform[batch_idx])
            grads = backward(model, X, grad_logits)
            opt.step(model, grads)
            total += loss * len(batch_idx)
        losses.append(total / view.n)
    return model, losses, evaluate(model, test)


class TestEpochBatches:
    def test_exact_division(self):
        batches = epoch_batches(np.arange(12), 4)
        assert [len(b) for b in batches] == [4, 4, 4]

    def test_remainder_merged_into_last(self):
        batches = epoch_batches(np.arange(10), 4)
        assert [len(b) for b in batches] == [4, 6]

    def test_tiny_population_single_batch(self):
        batches = epoch_batches(np.arange(3), 64)
        assert [len(b) for b in batches] == [3]

    def test_preserves_order_and_cover(self):
        perm = np.random.default_rng(0).permutation(23)
        batches = epoch_batches(perm, 5)
        np.testing.assert_array_equal(np.concatenate(batches), perm)


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"epochs": 0},
            {"batch_size": 1},
            {"temperature": 0.9},
            {"lam": -0.1},
            {"k": 0},
            {"count_mode": "kl"},
            {"knn_scope": "window"},
            {"vote_mode": "borda"},
            {"knn_features": "pca"},
            {"eval_window": 0},
            {"threads": 0},
        ],
    )
    def test_invalid_configs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            TrainConfig(**kwargs)


class TestDegeneracy:
    def test_t1_lambda0_equals_uniform_baseline_exactly(self):
        ds = make_dataset(n=200, seed=3)
        train, test = split(ds, 0.2, seed=4)
        config = TrainConfig(
            epochs=5, batch_size=32, hidden=(16,), temperature=1.0, lam=0.0, seed=5
        )
        model, history = fit(train, test, config)
        ref_model, ref_losses, ref_acc = baseline_fit(train, test, config)
        assert [h.reweight_loss for h in history] == ref_losses
        assert history[-1].test_accuracy == ref_acc
        for a, b in zip(model.parameters(), ref_model.parameters()):
            np.testing.assert_array_equal(a, b)


class TestFirewallAndDeterminism:
    def test_shuffled_hidden_truth_changes_nothing(self):
        ds = make_dataset(n=150, seed=6)
        train, test = split(ds, 0.2, seed=7)
        rng = np.random.default_rng(8)
        shuffled = PartialDataset(
            features=train.features,
            candidates=train.candidates,
            m=train.m,
            hidden_truth=rng.permutation(np.arange(train.m))[
                rng.integers(0, train.m, size=train.n)
            ],
        )
        config = TrainConfig(epochs=3, batch_size=32, hidden=(8,), seed=9)
        m1, h1 = fit(train, test, config)
        m2, h2 = fit(shuffled, test, config)
        for a, b in zip(m1.parameters(), m2.parameters()):
            np.testing.assert_array_equal(a, b)
        assert h1 == h2 or [
            (x.reweight_loss, x.count_loss, x.test_accuracy) for x in h1
        ] == [(x.reweight_loss, x.count_loss, x.test_accuracy) for x in h2]

    def test_same_seed_reproduces_run(self):
        ds = make_dataset(n=120, seed=10)
        train, test = split(ds, 0.25, seed=11)
        config = TrainConfig(epochs=4, batch_size=32, hidden=(8,), seed=12)
        m1, h1 = fit(train, test, config)
        m2, h2 = fit(train, test, config)
        for a, b in zip(m1.parameters(), m2.parameters()):
            np.testing.assert_array_equal(a, b)
        assert [x.reweight_loss for x in h1] == [x.reweight_loss for x in h2]
        assert [x.count_loss for x in h1] == [x.count_loss for x in h2]
        assert [x.test_accuracy for x in h1] == [x.test_accuracy for x in h2]

    def test_single_precision_mode_trains(self):
        ds = make_dataset(n=150, q=0.0, seed=40)
        train, test = split(ds, 0.2, seed=41)
        config = TrainConfig(
            epochs=30, batch_size=32, hidden=(16,), lam=0.0, lr=1e-2,
            precision="single", seed=42
        )
        model, history = fit(train, test, config)
        assert model.parameters()[0].dtype == np.float32
        assert history[-1].test_accuracy >= 0.9

    @pytest.mark.parametrize("scope,feats", [("global", "raw"), ("batch", "embedding"),
                                             ("global", "embedding")])
    def test_other_neighbor_modes_run_and_reproduce(self, scope, feats):
        ds = make_dataset(n=100, seed=13)
        train, test = split(ds, 0.2, seed=14)
        config = TrainConfig(
            epochs=2, batch_size=32, hidden=(8,), knn_scope=scope, knn_features=feats, seed=15
        )
        _, h1 = fit(train, test, config)
        _, h2 = fit(train, test, config)
        assert [x.reweight_loss for x in h1] == [x.reweight_loss for x in h2]


class TestMetrics:
    def test_total_is_reweight_plus_lambda_count(self):
        ds = make_dataset(n=130, seed=16)
        train, test = split(ds, 0.2, seed=17)
        for lam in (0.0, 1e-3, 0.5):
            config = TrainConfig(epochs=3, batch_size=32, hidden=(8,), lam=lam, seed=18)
            _, history = fit(train, test, config)
            for h in history:
                assert h.total_loss == pytest.approx(
                    h.reweight_loss + lam * h.count_loss, abs=1e-9
                )

    def test_csv_round_trip_and_final_accuracy_recompute(self, tmp_path):
        ds = make_dataset(n=140, seed=19)
        train, test = split(ds, 0.2, seed=20)
        config = TrainConfig(epochs=12, batch_size=32, hidden=(8,), seed=21)
        _, history = fit(train, test, config)
        path = tmp_path / "metrics.csv"
        write_metrics_csv(history, path)
        assert path.read_text().splitlines()[0] == CSV_HEADER
        back = read_metrics_csv(path)
        # recompute the reported number from the emitted CSV
        mean, std = summarize(history, 10)
        accs = [h.test_accuracy for h in back[-10:]]
        assert mean == pytest.approx(sum(accs) / 10, abs=1e-9)
        assert std == pytest.approx(float(np.std(accs)), abs=1e-9)

    def test_wall_time_recorded_in_memory_not_csv(self, tmp_path):
        ds = make_dataset(n=100, seed=22)
        train, test = split(ds, 0.2, seed=23)
        _, history = fit(train, test, TrainConfig(epochs=2, batch_size=32, hidden=(8,), seed=0))
        assert all(h.seconds > 0 for h in history)
        path = tmp_path / "m.csv"
        write_metrics_csv(history, path)
        for line in path.read_text().splitlines()[1:]:
            assert line.rsplit(",", 1)[1] == "0"

    def test_eval_stride(self):
        ds = make_dataset(n=100, seed=24)
        train, test = split(ds, 0.2, seed=25)
        config = TrainConfig(epochs=5, batch_size=32, hidden=(8,), eval_stride=2, seed=26)
        _, history = fit(train, test, config)
        evaluated = [not math.isnan(h.test_accuracy) for h in history]
        assert evaluated == [True, False, True, False, True]


class TestEvaluateSummarize:
    def test_uniform_model_near_chance(self):
        ds = make_dataset(n=600, m=3, seed=27)
        model = Mlp.init((2, 4, 3), np.random.default_rng(0))
        for w in model.weights:
            w[:] = 0.0
        acc = evaluate(model, ds)
        # all-uniform probabilities predict class 0 everywhere; labels are
        # uniform, so accuracy sits near 1/3 (3-sigma binomial band)
        assert abs(acc - 1 / 3) <= 3 * math.sqrt((1 / 3) * (2 / 3) / ds.n)

    def test_memorizing_model_scores_one(self):
        ds = make_dataset(n=90, q=0.0, seed=28)
        train, _ = split(ds, 0.2, seed=29)
        config = TrainConfig(epochs=60, batch_size=32, hidden=(16,), lam=0.0, lr=1e-2, seed=30)
        model, _ = fit(train, train, config)
        assert evaluate(model, train) == 1.0

    def test_missing_truth_rejected(self):
        ds = make_dataset(n=50, seed=31).strip_truth()
        model = Mlp.init((2, 3, 3), np.random.default_rng(0))
        with pytest.raises(ValueError):
            evaluate(model, ds)

    def test_summarize_constant_window(self):
        history = [
            EpochMetrics(i, 0.0, 0.0, 0.0, 0.9, 0.0) for i in range(20)
        ]
        assert summarize(history, 10) == (0.9, 0.0)

    def test_summarize_two_point(self):
        history = [
            EpochMetrics(0, 0.0, 0.0, 0.0, 0.8, 0.0),
            EpochMetrics(1, 0.0, 0.0, 0.0, 1.0, 0.0),
        ]
        mean, std = summarize(history, 2)
        assert mean == pytest.approx(0.9, abs=1e-15)
        assert std == pytest.approx(0.1, abs=1e-15)

    def test_summarize_window_validated(self):
        history = [EpochMetrics(0, 0.0, 0.0, 0.0, 0.9, 0.0)]
        with pytest.raises(ValueError):
            summarize(history, 2)
        with pytest.raises(ValueError):
            summarize(history, 0)


class TestGlobalRawEnhancedLabels:
    def test_computed_once_per_row_per_run(self, monkeypatch):
        ds = make_dataset(n=100, seed=16)
        train, test = split(ds, 0.2, seed=17)
        calls = []
        original = trainer_module.enhanced_label

        def counting(i, dataset, neighbors, vote_mode):
            calls.append(int(i))
            return original(i, dataset, neighbors, vote_mode)

        monkeypatch.setattr(trainer_module, "enhanced_label", counting)
        config = TrainConfig(epochs=3, batch_size=32, hidden=(8,), knn_scope="global", seed=18)
        fit(train, test, config)
        assert calls == list(range(train.n))


class TestDivergence:
    def test_non_finite_loss_names_epoch_and_batch(self):
        # features at 1e200 and SGD at lr=10 overflow the first update
        feats, labels = gaussian_clusters(200, 3, seed=0)
        cands = generate_synthetic(labels, 3, q=0.5, seed=1)
        ds = PartialDataset(features=feats * 1e200, candidates=cands, m=3, hidden_truth=labels)
        config = TrainConfig(epochs=5, batch_size=32, hidden=(8,), optimizer="sgd", lr=10.0, seed=0)
        epochs_done = []
        with np.errstate(all="ignore"), pytest.raises(TrainingDiverged) as err:
            fit(ds, None, config, on_epoch=lambda metrics, model: epochs_done.append(metrics))
        assert (err.value.epoch, err.value.batch) == (0, 1)
        assert "epoch 0, batch 1" in str(err.value)
        assert epochs_done == []


class TestScalingSmoke:
    def test_doubling_batch_size_stays_within_loose_bound(self):
        # count loss is O(n*b) per epoch, so doubling b should at most
        # double epoch time; allow 4x plus a constant floor for noise
        ds = make_dataset(n=512, seed=32)
        train, test = split(ds, 0.25, seed=33)

        def epoch_time(bs):
            config = TrainConfig(epochs=3, batch_size=bs, hidden=(8,), seed=34)
            t0 = time.perf_counter()
            fit(train, test, config)
            return (time.perf_counter() - t0) / 3

        t_small = epoch_time(32)
        t_big = epoch_time(64)
        assert t_big <= 4.0 * t_small + 0.5
