"""Training-loop contracts: degeneracy to the uniform-candidate baseline,
hidden-truth firewall, determinism, metrics identities."""

import math
import time

import numpy as np
import pytest

from cleanse.cli import EXIT_OK, main
from cleanse.data import (
    PartialDataset,
    gaussian_clusters,
    generate_synthetic,
    split,
    write_pll_file,
)
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
    format_metrics_row,
    summarize,
)


def make_dataset(n=240, m=3, q=0.5, seed=0, spread=1.0):
    feats, labels = gaussian_clusters(n, m, seed=seed, spread=spread)
    cands = generate_synthetic(labels, m, q=q, seed=seed + 1)
    return PartialDataset(features=feats, candidates=cands, m=m, hidden_truth=labels)


def cli_metrics_csv(tmp_path, train, test, flags):
    """Path of the metrics.csv that ``cleanse train`` writes for ``train`` and
    ``test``, given as PLL files, with the config ``flags``."""
    paths = [tmp_path / "train.pll", tmp_path / "test.pll"]
    for dataset, path in zip((train, test), paths):
        write_pll_file(dataset, path)
    out_dir = tmp_path / "run"
    code = main(["train", "--train", str(paths[0]), "--test", str(paths[1]),
                 "--out-dir", str(out_dir), "--quiet", *flags])
    assert code == EXIT_OK
    return out_dir / "metrics.csv"


def baseline_fit(train, test, config):
    """Reference run: uniform-candidate cross entropy, no reweighting, no
    count loss.  Mirrors fit's RNG consumption (init, then one permutation
    per epoch) so the degenerate configuration must match it exactly."""
    view = train.strip_truth()
    rng = np.random.default_rng(config.seed)
    model = Mlp.init((view.d, *config.hidden, view.m), rng)
    opt = make_optimizer(config.optimizer, config.lr, config.weight_decay)
    uniform = np.zeros((view.n, view.m))
    for i, row in enumerate(view.candidates):
        labs = np.flatnonzero(row)
        uniform[i, labs] = 1.0 / len(labs)

    losses = []
    for _ in range(config.epochs):
        perm = rng.permutation(view.n)
        total = 0.0
        for batch_idx in epoch_batches(perm, config.batch_size):
            X = view.features[batch_idx]
            hidden, probs = forward(model, X)
            loss, grad_logits, _ = reweighted_ce(probs, uniform[batch_idx])
            grads = backward(model, X, hidden, grad_logits)
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
            # non-finite numbers: NaN fails every comparison, inf every bound
            {"lam": math.nan},
            {"lam": math.inf},
            {"temperature": math.nan},
            {"temperature": math.inf},
            {"lr": math.nan},
            {"lr": math.inf},
            {"weight_decay": math.nan},
            {"weight_decay": math.inf},
            # fields that used to fail only inside fit, or never
            {"lr": 0.0},
            {"lr": -1.0},
            {"weight_decay": -1e-5},
            {"seed": -1},
            {"hidden": (8, 0)},
            {"hidden": [0]},
            {"optimizer": "foo"},
            # integer fields: no fractions, no bools, no silent truncation
            {"epochs": 2.5},
            {"batch_size": 32.5},
            {"k": 2.5},
            {"threads": 1.5},
            {"seed": True},
            {"eval_window": 10.0},
            {"hidden": (2.7,)},
            {"hidden": (8, True)},
            # float fields: numbers only, no bools; wrong types before ranges
            {"lr": True},
            {"lam": False},
            {"weight_decay": None},
            {"temperature": "3"},
            {"epochs": "3"},
            {"hidden": 3},
            {"hidden": ("8",)},
        ],
    )
    def test_invalid_configs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            TrainConfig(**kwargs)

    def test_boundary_values_accepted(self):
        config = TrainConfig(temperature=1.0, lam=0.0, weight_decay=0.0, lr=1e-300,
                             hidden=[], seed=0, optimizer="sgd")
        assert config.hidden == ()
        # manifests and the benchmark worker pass hidden as a JSON list
        assert TrainConfig(hidden=[300, 300]) == TrainConfig()


class TestTestSetCheck:
    @pytest.mark.parametrize(
        "change, message",
        [(lambda ds: PartialDataset(ds.features[:, :1], ds.candidates, ds.m, ds.hidden_truth),
          "d=1, m=3"),
         (lambda ds: PartialDataset(ds.features, np.pad(ds.candidates, ((0, 0), (0, 1))),
                                    4, ds.hidden_truth), "d=2, m=4"),
         (lambda ds: ds.strip_truth(), "no truth labels")],
        ids=["d", "m", "truth"],
    )
    def test_refused_before_any_work(self, monkeypatch, change, message):
        train, test = split(make_dataset(n=60, seed=40), 0.2, seed=41)

        def no_work(*args, **kwargs):
            raise AssertionError("fit started work on a refused test set")

        monkeypatch.setattr(trainer_module, "make_optimizer", no_work)
        with pytest.raises(ValueError, match=message):
            fit(train, change(test), TrainConfig(epochs=1, batch_size=16, hidden=(4,)))


    @pytest.mark.parametrize("rows", [0, 1])
    def test_train_set_below_two_rows_refused(self, rows):
        train, test = split(make_dataset(n=60, seed=40), 0.2, seed=41)
        for t in (test, None):
            with pytest.raises(ValueError, match=f"the training set has {rows} rows"):
                fit(train.subset(np.arange(rows)), t, TrainConfig(epochs=1, hidden=(4,)))


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
        path = cli_metrics_csv(tmp_path, train, test, ["--epochs", "12", "--batch-size", "32",
                                                        "--hidden", "8", "--seed", "21"])
        lines = path.read_text().splitlines()
        assert lines == [CSV_HEADER, *(format_metrics_row(h) for h in history)]
        # recompute the reported number from the emitted CSV
        mean, std = summarize(history, 10)
        accs = [float(line.split(",")[4]) for line in lines[-10:]]
        assert mean == pytest.approx(sum(accs) / 10, abs=1e-9)
        assert std == pytest.approx(float(np.std(accs)), abs=1e-9)

    def test_wall_time_recorded_in_memory_not_csv(self, tmp_path):
        ds = make_dataset(n=100, seed=22)
        train, test = split(ds, 0.2, seed=23)
        _, history = fit(train, test, TrainConfig(epochs=2, batch_size=32, hidden=(8,), seed=0))
        assert all(h.seconds > 0 for h in history)
        path = cli_metrics_csv(tmp_path, train, test,
                               ["--epochs", "2", "--batch-size", "32", "--hidden", "8"])
        header, *lines = path.read_text().splitlines()
        assert "seconds" not in header.split(",")
        assert len(lines) == 2
        for line in lines:
            assert len(line.split(",")) == 5


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

    def test_summarize_refuses_nan_in_window(self):
        nan = float("nan")
        accs = [0.5, nan, 0.7, 0.8, 0.9]
        history = [EpochMetrics(i, 0.0, 0.0, 0.0, a, 0.0) for i, a in enumerate(accs)]
        mean, std = summarize(history, 3)
        assert mean == pytest.approx(0.8, abs=1e-15)
        assert std == pytest.approx(float(np.std([0.7, 0.8, 0.9])), abs=1e-15)
        with pytest.raises(ValueError, match="no test accuracy"):
            summarize(history, 4)

    def test_summarize_window_validated(self):
        history = [EpochMetrics(0, 0.0, 0.0, 0.0, 0.9, 0.0)]
        with pytest.raises(ValueError):
            summarize(history, 2)
        with pytest.raises(ValueError):
            summarize(history, 0)


@pytest.fixture
def label_calls(monkeypatch):
    """Row indices of every enhanced_label call fit makes, in call order."""
    calls = []
    original = trainer_module.enhanced_label

    def counting(i, dataset, neighbors, vote_mode):
        calls.append(int(i))
        return original(i, dataset, neighbors, vote_mode)

    monkeypatch.setattr(trainer_module, "enhanced_label", counting)
    return calls


class TestGlobalRawEnhancedLabels:
    @pytest.mark.parametrize("knn_features", ["raw", "embedding"])
    def test_computed_once_per_row_per_run(self, label_calls, knn_features):
        # raw neighbours never change, so labels are computed once per run;
        # embedding neighbours are recomputed each epoch, in view order
        ds = make_dataset(n=100, seed=16)
        train, test = split(ds, 0.2, seed=17)
        config = TrainConfig(epochs=3, batch_size=32, hidden=(8,), knn_scope="global",
                             knn_features=knn_features, seed=18)
        fit(train, test, config)
        runs = 1 if knn_features == "raw" else config.epochs
        assert label_calls == list(range(train.n)) * runs

    def test_embedding_without_hidden_layer_computed_once(self, label_calls):
        # with no hidden layer the embedding is the raw view, which never changes
        ds = make_dataset(n=100, seed=16)
        train, test = split(ds, 0.2, seed=17)
        runs = {}
        for knn_features in ("embedding", "raw"):
            config = TrainConfig(epochs=3, batch_size=32, hidden=(), knn_scope="global",
                                 knn_features=knn_features, seed=18)
            model, history = fit(train, test, config)
            runs[knn_features] = (
                [(h.reweight_loss, h.count_loss, h.test_accuracy) for h in history],
                [p.tobytes() for p in model.parameters()],
            )
            if knn_features == "embedding":
                assert label_calls == list(range(train.n))
        assert runs["embedding"] == runs["raw"]


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

    def test_lambda0_stops_at_the_same_batch(self):
        # lambda = 0 defers the count values to the epoch's end, but a
        # non-finite reweight loss still stops the run at its own batch
        feats, labels = gaussian_clusters(200, 3, seed=0)
        cands = generate_synthetic(labels, 3, q=0.5, seed=1)
        ds = PartialDataset(features=feats * 1e200, candidates=cands, m=3, hidden_truth=labels)
        config = TrainConfig(epochs=5, batch_size=32, hidden=(8,), optimizer="sgd", lr=10.0,
                             seed=0, lam=0.0)
        epochs_done = []
        with np.errstate(all="ignore"), pytest.raises(TrainingDiverged) as err:
            fit(ds, None, config, on_epoch=lambda metrics, model: epochs_done.append(metrics))
        assert (err.value.epoch, err.value.batch) == (0, 1)
        assert epochs_done == []

    def test_lambda0_message_carries_the_batch_count_value(self, monkeypatch):
        seen = []

        def ce_failing_at_batch_1(probs, weights):
            rl, grad, sat = reweighted_ce(probs, weights)
            seen.append(probs)
            return (float("nan") if len(seen) == 2 else rl), grad, sat

        intervals = []
        batch_intervals = trainer_module.batch_intervals

        def recording_intervals(candidates):
            intervals.append(batch_intervals(candidates))
            return intervals[-1]

        monkeypatch.setattr(trainer_module, "reweighted_ce", ce_failing_at_batch_1)
        monkeypatch.setattr(trainer_module, "batch_intervals", recording_intervals)
        config = TrainConfig(epochs=2, batch_size=32, hidden=(8,), seed=0, lam=0.0)
        epochs_done = []
        with pytest.raises(TrainingDiverged) as err:
            fit(make_dataset(), None, config,
                on_epoch=lambda metrics, model: epochs_done.append(metrics))
        assert (err.value.epoch, err.value.batch) == (0, 1)
        assert epochs_done == []
        want = trainer_module.count_loss_values([(seen[1], *intervals[1])], "nll")[0]
        assert math.isfinite(want)
        assert str(err.value).endswith(f"reweight loss nan, count loss {want}")

    def test_non_finite_deferred_count_value_names_its_batch(self, monkeypatch):
        count_loss_values = trainer_module.count_loss_values

        def nan_at_batch_2(batches, mode):
            values = count_loss_values(batches, mode)
            values[2] = float("inf")
            return values

        monkeypatch.setattr(trainer_module, "count_loss_values", nan_at_batch_2)
        config = TrainConfig(epochs=2, batch_size=32, hidden=(8,), seed=0, lam=0.0)
        epochs_done = []
        with pytest.raises(TrainingDiverged, match="epoch 0, batch 2: .* count loss inf") as err:
            fit(make_dataset(), None, config,
                on_epoch=lambda metrics, model: epochs_done.append(metrics))
        assert (err.value.epoch, err.value.batch) == (0, 2)
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
