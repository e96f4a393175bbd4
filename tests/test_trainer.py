"""Training-loop contracts: degeneracy to the uniform-candidate baseline,
hidden-truth firewall, determinism, metrics identities."""

import dataclasses
import inspect
import math
import re
import time
import tracemalloc

import numpy as np
import pytest

from cleanse.cli import EXIT_OK, main
from cleanse.countloss import batch_intervals, count_loss
from cleanse.data import (
    PartialDataset,
    gaussian_clusters,
    generate_synthetic,
    split,
    write_pll_file,
)
from cleanse.neural import Mlp, backward, forward, make_optimizer, reweighted_ce
from cleanse.reweight import build_weight_matrix, enhanced_labels, knn_search
import cleanse.trainer as trainer_module
from cleanse.trainer import (
    CSV_HEADER,
    FORWARD_BLOCK,
    EpochMetrics,
    RetiredChoice,
    TrainConfig,
    TrainingDiverged,
    batch_objective,
    epoch_batches,
    evaluate,
    fit,
    format_metrics_row,
    row_blocks,
    smallest_knn_search,
    summarize,
)
from test_neural import _TextbookAdam


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
    per epoch) and its network dtype, so the degenerate configuration must
    match it exactly."""
    view = train.strip_truth()
    rng = np.random.default_rng(config.seed)
    model = Mlp.init((view.d, *config.hidden, view.m), rng, dtype=trainer_module.NETWORK_DTYPE)
    opt = make_optimizer(config.lr, config.weight_decay)
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


def reference_fit(train, test, config):
    """Reference run of lambda > 0 training, batch by batch, through the
    public stage functions: at every scope, ``build_weight_matrix`` on the
    batch's own rows and their enhanced labels, then ``batch_intervals``,
    ``reweighted_ce`` and ``count_loss`` chained through the softmax by
    hand, and a textbook Adam on parameter arrays of its own.  Mirrors fit's
    RNG consumption; returns the parameters and, per epoch, (reweight loss,
    count loss, total loss, test accuracy)."""
    assert config.lam > 0.0
    view = train.strip_truth()
    rng = np.random.default_rng(config.seed)
    widths = (view.d, *config.hidden, view.m)
    params = Mlp.init(widths, rng, dtype=trainer_module.NETWORK_DTYPE).parameters()
    params = [p.copy() for p in params]
    adam = _TextbookAdam(params, config.lr, config.weight_decay)
    embed = config.knn_features == "embedding"

    def network():
        return Mlp(widths, params[0::2], params[1::2])

    def labels(features, cands):
        nb = knn_search(features, config.k, threads=config.threads)
        return enhanced_labels(cands, cands[nb.indices], nb.distances)

    if config.knn_scope == "global":
        enhanced = labels(view.features, view.candidates)
    history = []
    for _ in range(config.epochs):
        sum_rl = sum_rg = 0.0
        for batch_idx in epoch_batches(rng.permutation(view.n), config.batch_size):
            feats, cands = view.features[batch_idx], view.candidates[batch_idx]
            X = feats.astype(trainer_module.NETWORK_DTYPE)
            net = network()
            hidden, probs = forward(net, X)
            if config.knn_scope == "batch":
                batch_enhanced = labels(hidden[-1] if embed else feats, cands)
            else:
                batch_enhanced = enhanced[batch_idx]
            weights = build_weight_matrix(cands, batch_enhanced, config.temperature)
            rl, grad_logits, _ = reweighted_ce(probs, weights)
            cres = count_loss(probs, *batch_intervals(cands))
            gdotp = np.sum(cres.grad * probs, axis=1, keepdims=True)
            grad_logits = grad_logits + config.lam * probs * (cres.grad - gdotp)
            adam.step(params, backward(net, X, hidden, grad_logits))
            sum_rl += rl * len(batch_idx)
            sum_rg += cres.loss * len(batch_idx)
        mean_rl, mean_rg = sum_rl / view.n, sum_rg / view.n
        history.append((mean_rl, mean_rg, mean_rl + config.lam * mean_rg,
                        evaluate(network(), test)))
    return params, history


class TestReferenceFit:
    # desk's shape (600 training rows, m=3, global raw scope), batch scope
    # over the embedding, and batch scope at m=10
    CASES = {
        "desk": (dict(n=800, m=3, seed=50), dict(
            epochs=3, batch_size=64, hidden=(32, 32), k=20, knn_scope="global", lam=1e-3)),
        "batch-embedding": (dict(n=200, m=3, seed=52), dict(
            epochs=3, batch_size=32, hidden=(8, 8), k=5, knn_scope="batch",
            knn_features="embedding", lam=0.1)),
        "batch-m10": (dict(n=300, m=10, seed=54, q=0.3), dict(
            epochs=2, batch_size=64, hidden=(16,), k=10, knn_scope="batch", lam=0.1)),
    }

    @pytest.mark.parametrize("case", CASES)
    def test_fit_equals_the_per_batch_reference(self, case):
        data, settings = self.CASES[case]
        train, test = split(make_dataset(**data), 0.25, seed=data["seed"] + 1)
        config = TrainConfig(temperature=3.0, seed=data["seed"] + 2, **settings)
        model, history = fit(train, test, config)
        ref_params, ref_history = reference_fit(train, test, config)
        assert [h.epoch for h in history] == list(range(config.epochs))
        assert [(h.reweight_loss, h.count_loss, h.total_loss, h.test_accuracy)
                for h in history] == ref_history
        got = model.parameters()
        assert len(got) == len(ref_params)
        for a, b in zip(got, ref_params):
            assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


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

    def test_views_of_full_batches_with_the_rest_in_the_last(self):
        for n in range(1, 140):
            perm = np.arange(n)
            for b in range(2, 70):
                batches = epoch_batches(perm, b)
                starts = list(range(0, n - b + 1, b)) or [0]
                ends = starts[1:] + [n]
                assert [(x[0], x[-1] + 1) for x in batches] == list(zip(starts, ends))
                assert all(x.base is perm for x in batches)

    @pytest.mark.parametrize("scope, n, want", [
        ("batch", 100, 32), ("batch", 95, 32), ("batch", 20, 20), ("global", 100, 100),
    ])
    def test_smallest_knn_search_is_the_smallest_batch(self, scope, n, want):
        assert smallest_knn_search(n, TrainConfig(batch_size=32, knn_scope=scope)) == want


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"epochs": 0},
            {"batch_size": 1},
            {"temperature": 0.9},
            {"lam": -0.1},
            {"k": 0},
            {"knn_scope": None},
            {"knn_scope": "window"},
            {"knn_features": "Raw"},
            {"knn_features": "pca"},
            {"optimizer": "Adam"},
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
            {"epochs": 3.0},
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
            # removed in 0.8.0, also where no hidden layer made it the raw view
            {"knn_scope": "global", "knn_features": "embedding"},
            {"knn_scope": "global", "knn_features": "embedding", "hidden": ()},
            # no hidden layer to search; before 0.9.0 this quietly searched the raw features
            {"knn_features": "embedding", "hidden": ()},
        ],
    )
    def test_invalid_configs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            TrainConfig(**kwargs)

    @pytest.mark.parametrize(
        "settings, named",
        [({"knn_scope": "global", "knn_features": "embedding"},
          "knn_scope 'global' with knn_features 'embedding' names a mode removed in 0.8.0"),
         ({"knn_scope": "global", "knn_features": "embedding", "hidden": ()},
          "knn_scope 'global' with knn_features 'embedding' names a mode removed in 0.8.0"),
         ({"optimizer": "sgd"}, "optimizer 'sgd' names a mode removed in 0.9.0"),
         ({"knn_features": "embedding", "hidden": []},
          r"knn_features 'embedding' with hidden \(\) names a mode removed in 0.9.0"),
         # a retired value is named as such before the choices would call it unknown
         ({"optimizer": "sgd", "knn_scope": "window"},
          "optimizer 'sgd' names a mode removed in 0.9.0"),
         ({"optimizer": "foo"}, "optimizer 'foo' names a mode removed in 0.10.0"),
         ({"count_mode": "entropy"}, "count_mode 'entropy' names a mode removed in 0.4.0"),
         ({"vote_mode": "multiset"}, "vote_mode 'multiset' names a mode removed in 0.4.0")],
        ids=["global-embedding", "global-embedding-no-hidden", "sgd", "embedding-no-hidden",
             "sgd-before-choices", "optimizer-foo", "count-mode", "vote-mode"],
    )
    def test_retired_choices_name_their_release(self, settings, named):
        with pytest.raises(RetiredChoice, match=f"^config {named} "):
            TrainConfig(**settings)

    @pytest.mark.parametrize("field, value", [("count_mode", "nll"), ("vote_mode", "fractional"),
                                              ("eval_window", 3), ("optimizer", "adam")])
    def test_removed_modes_are_not_fields(self, field, value):
        # a removed field is a keyword only, dropped at the value its runs
        # still replay at (eval_window at any); the refusals of other values
        # are in test_retired_choices_name_their_release
        config = TrainConfig(**{field: value}, threads=2)
        assert config == TrainConfig(threads=2)
        assert field not in dataclasses.asdict(config)
        assert dataclasses.replace(config, threads=1) == TrainConfig()

    def test_removed_fields_are_the_keywords_in_table_order(self):
        # __post_init__ pairs the keywords with _RETIRED_FIELDS by position
        keywords = [p.name for p in inspect.signature(TrainConfig).parameters.values()
                    if p.kind is inspect.Parameter.KEYWORD_ONLY]
        assert keywords == list(trainer_module._RETIRED_FIELDS)
        assert len(dataclasses.fields(TrainConfig)) == 12

    def test_boundary_values_accepted(self):
        config = TrainConfig(temperature=1.0, lam=0.0, weight_decay=0.0, lr=1e-300,
                             hidden=[], seed=0)
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


    @pytest.mark.parametrize("which", ["training", "test"])
    @pytest.mark.parametrize("value", [3.5e38, -1e300, math.nan])
    def test_feature_beyond_float32_refused_before_any_work(self, monkeypatch, which, value):
        train, test = split(make_dataset(n=60, seed=40), 0.2, seed=41)
        target = train if which == "training" else test
        feats = target.features.copy()
        feats[5, 1] = value
        changed = PartialDataset(feats, target.candidates, target.m, target.hidden_truth)
        train, test = (changed, test) if which == "training" else (train, changed)

        def no_work(*args, **kwargs):
            raise AssertionError("fit started work on a refused dataset")

        monkeypatch.setattr(trainer_module, "make_optimizer", no_work)
        message = (f"the {which} set's feature at row 5, column 1 is {value!r}, "
                   "outside the finite float32 range")
        with pytest.raises(ValueError, match=re.escape(message)):
            fit(train, test, TrainConfig(epochs=1, batch_size=16, hidden=(4,)))

    def test_float32_maximum_is_accepted(self):
        train, test = split(make_dataset(n=60, seed=40), 0.2, seed=41)
        feats = train.features.copy()
        feats[0, 0] = float(np.finfo(np.float32).max)
        feats[1, 1] = -float(np.finfo(np.float32).max)
        edge = PartialDataset(feats, train.candidates, train.m, train.hidden_truth)
        trainer_module.check_datasets(edge, test)

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


class TestBatchObjective:
    def test_lambda0_reports_the_count_value_and_keeps_the_ce_gradient(self, monkeypatch):
        calls = []
        monkeypatch.setattr(trainer_module, "reweighted_ce",
                            lambda *args: calls.append(reweighted_ce(*args)) or calls[-1])
        rng = np.random.default_rng(35)
        n, m = 40, 3
        z = rng.standard_normal((n, m))
        probs = np.exp(z) / np.exp(z).sum(axis=1, keepdims=True)
        cands = generate_synthetic(rng.integers(0, m, size=n), m, q=0.5, seed=36)
        weights = cands / cands.sum(axis=1, keepdims=True)
        lo, hi = batch_intervals(cands)
        rl, rg, grad_logits = batch_objective(probs, weights, lo, hi, 0.0)
        assert rl == calls[0][0] and rg == count_loss(probs, lo, hi).loss
        # the CE's own array: no lam * count-gradient term, not even a zero one
        assert grad_logits is calls[0][1]
        _, rg_half, grad_half = batch_objective(probs, weights, lo, hi, 0.5)
        assert rg_half == rg and not np.array_equal(grad_half, grad_logits)


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

    @pytest.mark.parametrize("scope,feats", [("global", "raw"), ("batch", "embedding")])
    def test_other_neighbor_modes_run_and_reproduce(self, scope, feats):
        ds = make_dataset(n=100, seed=13)
        train, test = split(ds, 0.2, seed=14)
        config = TrainConfig(
            epochs=2, batch_size=32, hidden=(8,), knn_scope=scope, knn_features=feats, seed=15
        )
        _, h1 = fit(train, test, config)
        _, h2 = fit(train, test, config)
        assert [x.reweight_loss for x in h1] == [x.reweight_loss for x in h2]

    @pytest.mark.parametrize("scope,feats,lam", [("batch", "raw", 1e-3), ("global", "raw", 0.0),
                                                 ("batch", "embedding", 0.0)])
    def test_epoch_n_of_a_longer_run_is_an_n_epoch_run(self, scope, feats, lam):
        # the parameters after epoch N-1 of a run are those of the same run
        # with epochs=N, and its history is a prefix
        ds = make_dataset(n=100, seed=16)
        train, test = split(ds, 0.2, seed=17)
        config = TrainConfig(epochs=4, batch_size=32, hidden=(8,), knn_scope=scope,
                             knn_features=feats, lam=lam, seed=18)
        after = []
        _, history = fit(train, test, config, on_epoch=lambda metrics, model: after.append(
            [p.copy() for p in model.parameters()]))
        for epochs in (1, 3):
            model, short = fit(train, test, dataclasses.replace(config, epochs=epochs))
            assert ([format_metrics_row(x) for x in short]
                    == [format_metrics_row(x) for x in history[:epochs]])
            params = model.parameters()
            assert len(params) == len(after[epochs - 1])
            for got, want in zip(params, after[epochs - 1]):
                assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


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

    def test_lambda0_counts_once_per_batch(self, monkeypatch):
        # one value-only call per batch and no gradient; the column is the
        # size-weighted mean of the batch values, the merged tail included
        values = []
        original = trainer_module.count_loss_value

        def recording(probs, lo, hi):
            values.append((original(probs, lo, hi), len(probs)))
            return values[-1][0]

        def no_gradient(*args):
            raise AssertionError("count_loss ran at lambda = 0")

        monkeypatch.setattr(trainer_module, "count_loss_value", recording)
        monkeypatch.setattr(trainer_module, "count_loss", no_gradient)
        train = make_dataset(n=100, seed=16)
        config = TrainConfig(epochs=3, batch_size=32, hidden=(8,), lam=0.0, seed=18)
        _, history = fit(train, None, config)
        sizes = [len(b) for b in epoch_batches(np.arange(train.n), 32)]
        assert sizes == [32, 32, 36]
        assert [size for _, size in values] == sizes * config.epochs
        for epoch, metrics in enumerate(history):
            total = 0.0
            for value, size in values[epoch * len(sizes) : (epoch + 1) * len(sizes)]:
                total += value * size
            assert metrics.count_loss == total / train.n

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

    def test_empty_set_rejected(self):
        ds = PartialDataset(features=np.zeros((0, 2)), candidates=np.zeros((0, 3), dtype=bool),
                            m=3, hidden_truth=np.zeros(0, dtype=np.int64))
        model = Mlp.init((2, 3, 3), np.random.default_rng(0))
        with pytest.raises(ValueError, match="non-empty"):
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


def wide_dataset(n, d=30, m=4, seed=0):
    """Gaussian features of width d, wide enough that forward takes the BLAS
    GEMM, with uniform-flip candidates that list the truth."""
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, m, size=n)
    feats = rng.standard_normal((n, d)) + 0.5 * np.eye(m, d)[labels]
    cands = generate_synthetic(labels, m, q=0.5, seed=seed + 1)
    return PartialDataset(features=feats, candidates=cands, m=m, hidden_truth=labels)


B = FORWARD_BLOCK


class TestForwardBlocks:
    @pytest.mark.parametrize("n", [1, 2, B - 1, B, B + 1, 2 * B - 1, 2 * B, 2 * B + 1, 5 * B + 7])
    def test_row_blocks_cut_like_epoch_batches(self, n):
        blocks = row_blocks(n)
        batches = epoch_batches(np.arange(n), B)
        assert [list(range(n))[rows] for rows in blocks] == [b.tolist() for b in batches]
        # no one-row block of many rows: its forward would take numpy's
        # matrix-vector path, whose bits differ
        assert all(rows.stop - rows.start > 1 for rows in blocks) or n == 1

    @pytest.mark.parametrize("n", [1, B - 1, B, B + 1, 2 * B + 1])
    def test_blocked_evaluation_equals_whole_set(self, n):
        ds = wide_dataset(n, seed=n)
        model = Mlp.init((ds.d, 16, ds.m), np.random.default_rng(n), dtype=trainer_module.NETWORK_DTYPE)
        _, probs = forward(model, ds.features)
        whole = float(np.mean(np.argmax(probs, axis=1) == ds.hidden_truth))
        got = evaluate(model, ds)
        assert type(got) is float and got == whole
        assert 0.0 < whole < 1.0 or n == 1  # the check is not on a constant prediction


class TestEvaluateMemory:
    # the Python objects of 50 row slices, beyond the blocks' arrays
    SLACK = 16 * 1024

    def test_traced_peak_does_not_grow_with_the_test_set(self):
        # both sets end in a merged block of 1.5 B rows; a whole-set forward
        # of the larger would hold 50 blocks' float32 features at once
        model = Mlp.init((256, 64, 10), np.random.default_rng(0), dtype=trainer_module.NETWORK_DTYPE)
        small, large = 5 * B + B // 2, 50 * B + B // 2
        peaks = {}
        for n in (small, large):
            ds = wide_dataset(n, d=256, m=10, seed=n)
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                evaluate(model, ds)
                peaks[n] = tracemalloc.get_traced_memory()[1] - base
            finally:
                tracemalloc.stop()
        assert peaks[large] <= peaks[small] + self.SLACK


@pytest.fixture
def label_calls(monkeypatch):
    """Row indices that fit's enhanced_labels calls label, in call order."""
    calls = []
    original = trainer_module.enhanced_labels

    def counting(own, neighbour_masks, distances):
        calls.extend(range(len(own)))
        return original(own, neighbour_masks, distances)

    monkeypatch.setattr(trainer_module, "enhanced_labels", counting)
    return calls


class TestGlobalRawEnhancedLabels:
    @pytest.mark.parametrize("knn_features", ["raw"])
    def test_computed_once_per_row_per_run(self, label_calls, knn_features):
        # raw neighbours never change, so labels are computed once per run
        ds = make_dataset(n=100, seed=16)
        train, test = split(ds, 0.2, seed=17)
        config = TrainConfig(epochs=3, batch_size=32, hidden=(8,), knn_scope="global",
                             knn_features=knn_features, seed=18)
        fit(train, test, config)
        assert label_calls == list(range(train.n))

    @pytest.mark.parametrize("knn_features", ["raw", "embedding"])
    def test_batch_scope_labels_each_batch_every_epoch(self, label_calls, knn_features):
        ds = make_dataset(n=100, seed=16)
        train, test = split(ds, 0.2, seed=17)
        config = TrainConfig(epochs=3, batch_size=32, hidden=(8,), knn_scope="batch",
                             knn_features=knn_features, seed=18)
        fit(train, test, config)
        # labels are recomputed for each batch's rows, in batch order, each epoch
        batches = epoch_batches(np.arange(train.n), 32)
        assert [len(b) for b in batches] == [32, 48]
        assert label_calls == [i for b in batches for i in range(len(b))] * config.epochs


class TestDivergence:
    def test_non_finite_loss_names_epoch_and_batch(self):
        # features at 1e30, inside float32's range, and Adam at lr=1e9, whose
        # first step moves every parameter by about lr, overflow the first
        # update: the second batch's activations are inf
        feats, labels = gaussian_clusters(200, 3, seed=0)
        cands = generate_synthetic(labels, 3, q=0.5, seed=1)
        ds = PartialDataset(features=feats * 1e30, candidates=cands, m=3, hidden_truth=labels)
        config = TrainConfig(epochs=5, batch_size=32, hidden=(8,), lr=1e9, seed=0)
        epochs_done = []
        with np.errstate(all="ignore"), pytest.raises(TrainingDiverged) as err:
            fit(ds, None, config, on_epoch=lambda metrics, model: epochs_done.append(metrics))
        assert (err.value.epoch, err.value.batch) == (0, 1)
        assert "epoch 0, batch 1" in str(err.value)
        assert epochs_done == []

    def test_lambda0_stops_at_the_same_batch(self):
        # at lambda = 0 the count loss is only reported, and a non-finite
        # reweight loss stops the run at the same batch as at lambda > 0
        feats, labels = gaussian_clusters(200, 3, seed=0)
        cands = generate_synthetic(labels, 3, q=0.5, seed=1)
        ds = PartialDataset(features=feats * 1e30, candidates=cands, m=3, hidden_truth=labels)
        config = TrainConfig(epochs=5, batch_size=32, hidden=(8,), lr=1e9, seed=0, lam=0.0)
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
        want = trainer_module.count_loss_value(seen[1], *intervals[1])
        assert math.isfinite(want)
        assert str(err.value).endswith(f"reweight loss nan, count loss {want}")

    def test_non_finite_count_value_at_lambda0_stops_before_its_step(self, monkeypatch):
        # the reported count value is checked with the reweight loss, so the
        # run stops before batch 2 of epoch 1 steps, not after the epoch
        count_loss_value, calls = trainer_module.count_loss_value, []

        def inf_at_epoch_1_batch_2(*args):
            calls.append(args)
            value = count_loss_value(*args)
            return float("inf") if len(calls) == per_epoch + 3 else value

        steps = []
        make_optimizer = trainer_module.make_optimizer

        def counting_optimizer(*args):
            opt = make_optimizer(*args)
            step = opt.step
            opt.step = lambda *a: steps.append(len(calls)) or step(*a)
            return opt

        monkeypatch.setattr(trainer_module, "count_loss_value", inf_at_epoch_1_batch_2)
        monkeypatch.setattr(trainer_module, "make_optimizer", counting_optimizer)
        train = make_dataset()
        per_epoch = len(epoch_batches(np.arange(train.n), 32))
        config = TrainConfig(epochs=3, batch_size=32, hidden=(8,), seed=0, lam=0.0)
        epochs_done = []
        with pytest.raises(TrainingDiverged, match="epoch 1, batch 2: .* count loss inf") as err:
            fit(train, None, config, on_epoch=lambda metrics, model: epochs_done.append(metrics))
        assert (err.value.epoch, err.value.batch) == (1, 2)
        assert [m.epoch for m in epochs_done] == [0]
        # every batch before it stepped once, after its own count value
        assert steps == list(range(1, per_epoch + 3))


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
