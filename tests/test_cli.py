"""CLI subcommands: generation, training with manifest replay, the stats
report, the oracle check gate, and exit codes."""

import argparse
import dataclasses
import hashlib
import json
import math
import os
import platform
import re
import shutil
import subprocess
import sys

import numpy as np
import pytest

import cleanse.checks as checks_module
import cleanse.cli as cli_module
import cleanse.trainer as trainer_module
from cleanse.checks import (
    check_count_loss_log_fallback,
    check_count_pmf,
    check_count_values,
    check_trainer_grad,
)
from cleanse.cli import (
    EXIT_CHECK_FAILED,
    EXIT_DIVERGED,
    EXIT_IO,
    EXIT_OK,
    EXIT_USAGE,
    _config_from_args,
    build_parser,
    main,
)
from cleanse.countloss import CountLossResult, count_log_pmf, count_loss_value
from cleanse.data import PartialDataset, read_pll_file, write_pll_file
from cleanse.neural import load_mlp, save_mlp
from cleanse.stats import Q_ALPHA_05
from cleanse.trainer import TrainConfig, fit


def run_cli(args):
    return main(args)


class TestGenerate:
    def test_gaussian_writes_expected_header(self, tmp_path, capsys):
        out = tmp_path / "train.pll"
        code = run_cli(
            ["generate", "--gaussian", "--classes", "3", "--n", "600",
             "--q", "0.5", "--seed", "7", "-o", str(out)]
        )
        assert code == EXIT_OK
        assert out.read_text().splitlines()[0] == "#pll n=600 d=2 m=3"

    def test_q_zero_reports_all_clean(self, tmp_path, capsys):
        out = tmp_path / "clean.pll"
        code = run_cli(
            ["generate", "--gaussian", "--classes", "3", "--n", "100",
             "--q", "0", "--seed", "1", "-o", str(out)]
        )
        assert code == EXIT_OK
        assert "clean_rate=1.0000" in capsys.readouterr().err

    def test_binomial_expectation_at_scale(self, tmp_path, capsys):
        out = tmp_path / "big.pll"
        code = run_cli(
            ["generate", "--gaussian", "--classes", "10", "--n", "70000",
             "--q", "0.5", "--seed", "3", "-o", str(out)]
        )
        assert code == EXIT_OK
        err = capsys.readouterr().err
        avg = float(err.split("avg_candidates=")[1].split()[0])
        assert 5.45 <= avg <= 5.55

    def test_split_outputs(self, tmp_path):
        out, test_out = tmp_path / "tr.pll", tmp_path / "te.pll"
        code = run_cli(
            ["generate", "--gaussian", "--classes", "3", "--n", "100", "--q", "0.5",
             "--seed", "5", "-o", str(out), "--test-fraction", "0.25",
             "--test-out", str(test_out)]
        )
        assert code == EXIT_OK
        assert read_pll_file(out).n == 75
        assert read_pll_file(test_out).n == 25

    def test_regenerate_from_source(self, tmp_path):
        src = tmp_path / "src.pll"
        run_cli(["generate", "--gaussian", "--classes", "3", "--n", "50",
                 "--q", "0", "--seed", "2", "-o", str(src)])
        out = tmp_path / "re.pll"
        code = run_cli(["generate", "--source", str(src), "--q", "0.9",
                        "--seed", "4", "-o", str(out)])
        assert code == EXIT_OK
        back = read_pll_file(out)
        orig = read_pll_file(src)
        np.testing.assert_array_equal(back.hidden_truth, orig.hidden_truth)
        np.testing.assert_array_equal(back.features, orig.features)

    @pytest.mark.parametrize(
        "flags, named",
        [(["--n", "5", "--classes", "7"], "--n and --classes"),
         (["--n", "600"], "--n"),
         (["--classes", "3"], "--classes")],
        ids=["both", "n", "classes"],
    )
    def test_gaussian_sizes_with_source_write_nothing(self, tmp_path, capsys, flags, named):
        src = tmp_path / "src.pll"
        run_cli(["generate", "--gaussian", "--n", "90", "--seed", "2", "-o", str(src)])
        out = tmp_path / "re.pll"
        code = run_cli(["generate", "--source", str(src), *flags, "-o", str(out)])
        assert code == EXIT_USAGE
        assert f"{named} size the --gaussian clusters" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_source_is_io_error(self, tmp_path):
        assert run_cli(
            ["generate", "--source", str(tmp_path / "nope.pll"), "-o",
             str(tmp_path / "x.pll")]
        ) == EXIT_IO

    def test_test_out_without_fraction_writes_nothing(self, tmp_path, capsys):
        out, test_out = tmp_path / "tr.pll", tmp_path / "te.pll"
        assert run_cli(
            ["generate", "--gaussian", "--n", "20", "-o", str(out), "--test-out", str(test_out)]
        ) == EXIT_USAGE
        assert "--test-out requires --test-fraction" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_test_out_naming_the_train_file_writes_nothing(self, tmp_path, capsys):
        out = tmp_path / "tr.pll"
        same = tmp_path / "sub" / ".." / "tr.pll"
        (tmp_path / "sub").mkdir()
        assert run_cli(
            ["generate", "--gaussian", "--n", "20", "-o", str(out),
             "--test-fraction", "0.25", "--test-out", str(same)]
        ) == EXIT_USAGE
        err = capsys.readouterr().err
        assert "--test-out" in err and "same file" in err
        assert not out.exists()

    def test_bad_fraction_is_usage_error(self, tmp_path):
        assert run_cli(
            ["generate", "--gaussian", "--n", "10", "-o", str(tmp_path / "x.pll"),
             "--test-fraction", "2.0", "--test-out", str(tmp_path / "y.pll")]
        ) == EXIT_USAGE


@pytest.fixture(scope="module")
def tiny_dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("data")
    train, test = root / "train.pll", root / "test.pll"
    code = run_cli(
        ["generate", "--gaussian", "--classes", "3", "--n", "120", "--q", "0.5",
         "--seed", "11", "-o", str(train), "--test-fraction", "0.25",
         "--test-out", str(test)]
    )
    assert code == EXIT_OK
    return str(train), str(test)


TINY_TRAIN_ARGS = ["--epochs", "3", "--batch-size", "32", "--hidden", "8", "--quiet"]


class TestTrain:
    def test_run_writes_artifacts_and_summary(self, tiny_dataset, tmp_path, capsys):
        train, test = tiny_dataset
        out_dir = tmp_path / "run"
        code = run_cli(["train", "--train", train, "--test", test,
                        "--out-dir", str(out_dir), "--seed", "1", *TINY_TRAIN_ARGS])
        assert code == EXIT_OK
        assert (out_dir / "metrics.csv").exists()
        assert (out_dir / "manifest.json").exists()
        # fit trains in float32, and the checkpoint keeps that dtype
        model_txt = (out_dir / "model.txt").read_text()
        assert model_txt.startswith("#mlp widths=2,8,3 dtype=float32\n")
        assert load_mlp(out_dir / "model.txt").dtype == np.float32
        assert "final accuracy over last 3 evaluated epochs" in capsys.readouterr().out

    def test_progress_lines_match_the_csv_unless_quiet(self, tiny_dataset, tmp_path, capsys):
        train, test = tiny_dataset
        loud = [flag for flag in TINY_TRAIN_ARGS if flag != "--quiet"]
        line = re.compile(r"epoch (\d+): reweight=(\S+) count=(\S+) total=(\S+) "
                          r"acc=(\S+) \(\d+\.\d\ds\)")
        for flags, quiet in ((loud, False), (TINY_TRAIN_ARGS, True)):
            out_dir = tmp_path / ("quiet" if quiet else "loud")
            code = run_cli(["train", "--train", train, "--test", test,
                            "--out-dir", str(out_dir), "--seed", "7", *flags])
            assert code == EXIT_OK
            err = capsys.readouterr().err.splitlines()
            assert err[0].startswith("training on ")
            if quiet:
                assert err[1:] == []
                continue
            rows = [row.split(",") for row in
                    (out_dir / "metrics.csv").read_text().splitlines()[1:]]
            assert len(err[1:]) == len(rows) == 3
            for printed, row in zip(err[1:], rows):
                match = line.fullmatch(printed)
                assert match, printed
                assert match[1] == row[0]
                # the line rounds to 6 decimals (accuracy to 4), the CSV to 9 digits
                for value, written, decimals in zip(match.groups()[1:], row[1:5], (6, 6, 6, 4)):
                    assert float(value) == pytest.approx(float(written),
                                                         abs=0.5 * 10.0**-decimals + 1e-12)

    @pytest.mark.parametrize("scope, k, notice", [
        ("batch", "40", "k=40 is clamped: a k-NN search over 32 rows has 31 neighbours\n"),
        ("batch", "31", None),  # every batch has 31 neighbours to give
        ("global", "90", "k=90 is clamped: a k-NN search over 90 rows has 89 neighbours\n"),
    ], ids=["batch", "batch-no-clamp", "global"])
    def test_k_clamp_prints_one_line_unless_quiet(self, tiny_dataset, tmp_path, capsys,
                                                  scope, k, notice):
        # 90 train rows in batches of 32: the smallest k-NN search has 32 rows
        train, test = tiny_dataset
        loud = [flag for flag in TINY_TRAIN_ARGS if flag != "--quiet"]
        for flags in (loud, TINY_TRAIN_ARGS):
            code = run_cli(["train", "--train", train, "--test", test, "--knn-scope", scope,
                            "--k", k, "--out-dir", str(tmp_path / scope), *flags])
            assert code == EXIT_OK
            err = capsys.readouterr().err
            if notice and flags is loud:
                assert err.count("clamp") == 1 and notice in err
            else:
                assert "clamp" not in err

    def test_manifest_replay_is_byte_identical(self, tiny_dataset, tmp_path):
        train, test = tiny_dataset
        run_a = tmp_path / "a"
        code = run_cli(["train", "--train", train, "--test", test,
                        "--out-dir", str(run_a), "--seed", "2", *TINY_TRAIN_ARGS])
        assert code == EXIT_OK
        first = (run_a / "metrics.csv").read_bytes()
        model_first = (run_a / "model.txt").read_bytes()
        run_b = tmp_path / "b"
        code = run_cli(["train", "--manifest", str(run_a / "manifest.json"),
                        "--out-dir", str(run_b), "--quiet"])
        assert code == EXIT_OK
        assert (run_b / "metrics.csv").read_bytes() == first
        assert (run_b / "model.txt").read_bytes() == model_first

    def test_manifest_records_the_bytes_trained_on(self, tiny_dataset, tmp_path, monkeypatch):
        # an edit landing after the read must not reach the recorded digest
        train = tmp_path / "train.pll"
        shutil.copyfile(tiny_dataset[0], train)
        read = hashlib.sha256(train.read_bytes()).hexdigest()
        check_datasets = cli_module.check_datasets

        def check_then_edit(*datasets):
            check_datasets(*datasets)
            with open(train, "a", encoding="utf-8") as fh:
                fh.write("\n")

        monkeypatch.setattr(cli_module, "check_datasets", check_then_edit)
        out_dir = tmp_path / "run"
        code = run_cli(["train", "--train", str(train), "--test", tiny_dataset[1],
                        "--out-dir", str(out_dir), *TINY_TRAIN_ARGS])
        assert code == EXIT_OK
        assert json.loads((out_dir / "manifest.json").read_text())["train_sha256"] == read

    def test_missing_train_flag_is_usage_error(self, tiny_dataset):
        _, test = tiny_dataset
        assert run_cli(["train", "--test", test]) == EXIT_USAGE

    def test_missing_file_is_io_error(self, tmp_path):
        assert run_cli(["train", "--train", str(tmp_path / "no.pll"),
                        "--test", str(tmp_path / "no2.pll")]) == EXIT_IO

    def test_bad_hyperparameter_is_usage_error(self, tiny_dataset):
        train, test = tiny_dataset
        assert run_cli(["train", "--train", train, "--test", test,
                        "--temperature", "0.5"]) == EXIT_USAGE

    @pytest.mark.parametrize(
        "flags",
        [["--lambda", "nan"], ["--lambda", "inf"], ["--temperature", "nan"],
         ["--temperature", "inf"], ["--lr", "nan"], ["--lr", "0"], ["--lr", "-1"],
         ["--weight-decay=-1e-5"], ["--weight-decay", "inf"], ["--seed", "-1"],
         ["--hidden", "8,0"]],
    )
    def test_refused_setting_writes_nothing(self, tiny_dataset, tmp_path, capsys, flags):
        train, test = tiny_dataset
        out_dir = tmp_path / "bad"
        code = run_cli(["train", "--train", train, "--test", test,
                        "--out-dir", str(out_dir), *TINY_TRAIN_ARGS, *flags])
        assert code == EXIT_USAGE
        assert "must be" in capsys.readouterr().err
        assert not out_dir.exists()

    @pytest.mark.parametrize("hidden", ["--hidden=8", "--hidden="])
    def test_global_scope_over_the_embedding_writes_nothing(self, tiny_dataset, tmp_path,
                                                            capsys, hidden):
        train, test = tiny_dataset
        out_dir = tmp_path / "bad"
        code = run_cli(["train", "--train", train, "--test", test, "--out-dir", str(out_dir),
                        "--knn-scope", "global", "--knn-features", "embedding", hidden,
                        "--quiet"])
        assert code == EXIT_USAGE
        assert "removed in 0.8.0" in capsys.readouterr().err
        assert not out_dir.exists()

    def test_embedding_without_a_hidden_layer_writes_nothing(self, tiny_dataset, tmp_path,
                                                             capsys):
        train, test = tiny_dataset
        out_dir = tmp_path / "bad"
        code = run_cli(["train", "--train", train, "--test", test, "--out-dir", str(out_dir),
                        "--knn-features", "embedding", "--hidden", "", "--quiet"])
        assert code == EXIT_USAGE
        assert ("config knn_features 'embedding' with hidden () names a mode removed in 0.9.0"
                in capsys.readouterr().err)
        assert not out_dir.exists()

    def test_diverging_run_reports_and_exits_nonzero(self, tiny_dataset, tmp_path, capsys):
        train, test = tiny_dataset
        ds = read_pll_file(train)
        huge = tmp_path / "huge.pll"
        write_pll_file(
            PartialDataset(features=ds.features * 1e30, candidates=ds.candidates,
                           m=ds.m, hidden_truth=ds.hidden_truth),
            str(huge),
        )
        out_dir = tmp_path / "div"
        with np.errstate(all="ignore"):
            code = run_cli(["train", "--train", str(huge), "--test", test,
                            "--out-dir", str(out_dir), "--lr", "1e9",
                            *TINY_TRAIN_ARGS])
        assert code == EXIT_DIVERGED
        assert "training diverged at epoch" in capsys.readouterr().err
        assert not (out_dir / "model.txt").exists()
        assert "nan" not in (out_dir / "metrics.csv").read_text()

    @pytest.mark.parametrize(
        "change, message",
        [(lambda ds: PartialDataset(ds.features, np.pad(ds.candidates, ((0, 0), (0, 1))),
                                    4, ds.hidden_truth), "m=4"),
         (lambda ds: PartialDataset(np.hstack([ds.features, ds.features]), ds.candidates,
                                    ds.m, ds.hidden_truth), "d=4"),
         (lambda ds: ds.strip_truth(), "no truth labels"),
         (lambda ds: ds.subset(np.arange(0)), "the test set is empty")],
        ids=["m", "d", "truth", "empty"],
    )
    def test_mismatched_test_set_writes_nothing(self, tiny_dataset, tmp_path, capsys,
                                                change, message):
        train, test = tiny_dataset
        bad_test = tmp_path / "bad_test.pll"
        write_pll_file(change(read_pll_file(test)), bad_test)
        out_dir = tmp_path / "bad"
        code = run_cli(["train", "--train", train, "--test", str(bad_test),
                        "--out-dir", str(out_dir), *TINY_TRAIN_ARGS])
        assert code == EXIT_USAGE
        assert message in capsys.readouterr().err
        assert not out_dir.exists()

    @pytest.mark.parametrize("which", ["training", "test"])
    def test_feature_beyond_float32_writes_nothing(self, tiny_dataset, tmp_path, capsys, which):
        paths = dict(zip(("training", "test"), tiny_dataset))
        ds = read_pll_file(paths[which])
        feats = ds.features.copy()
        feats[3, 0] = -1e39
        paths[which] = str(tmp_path / "big.pll")
        write_pll_file(PartialDataset(feats, ds.candidates, ds.m, ds.hidden_truth), paths[which])
        out_dir = tmp_path / "big"
        code = run_cli(["train", "--train", paths["training"], "--test", paths["test"],
                        "--out-dir", str(out_dir), *TINY_TRAIN_ARGS])
        assert code == EXIT_USAGE
        assert (f"the {which} set's feature at row 3, column 0 is -1e+39, outside the finite "
                "float32 range" in capsys.readouterr().err)
        assert not out_dir.exists()

    @pytest.mark.parametrize("rows", [0, 1])
    def test_train_file_below_two_rows_writes_nothing(self, tiny_dataset, tmp_path, capsys,
                                                      rows):
        train, test = tiny_dataset
        small = tmp_path / "small.pll"
        write_pll_file(read_pll_file(train).subset(np.arange(rows)), small)
        out_dir = tmp_path / "small"
        code = run_cli(["train", "--train", str(small), "--test", test,
                        "--out-dir", str(out_dir), *TINY_TRAIN_ARGS])
        assert code == EXIT_USAGE
        assert f"the training set has {rows} rows" in capsys.readouterr().err
        assert not out_dir.exists()

    def test_diverging_rerun_leaves_no_stale_model(self, tiny_dataset, tmp_path, capsys):
        train, test = tiny_dataset
        out_dir = tmp_path / "rerun"
        code = run_cli(["train", "--train", train, "--test", test, "--out-dir", str(out_dir),
                        *TINY_TRAIN_ARGS])
        assert code == EXIT_OK
        # what 0.4.0's --checkpoint-every 1 left beside model.txt
        shutil.copyfile(out_dir / "model.txt", out_dir / "model_epoch0.txt")
        (out_dir / "notes.txt").write_text("kept\n")
        ds = read_pll_file(train)
        huge = tmp_path / "huge.pll"
        write_pll_file(PartialDataset(ds.features * 1e30, ds.candidates, ds.m,
                                      ds.hidden_truth), huge)
        with np.errstate(all="ignore"):
            code = run_cli(["train", "--train", str(huge), "--test", test,
                            "--out-dir", str(out_dir), "--lr", "1e9",
                            *TINY_TRAIN_ARGS])
        assert code == EXIT_DIVERGED
        assert sorted(os.listdir(out_dir)) == ["manifest.json", "metrics.csv", "notes.txt"]
        assert json.loads((out_dir / "manifest.json").read_text())["train_path"] == str(huge)

    def test_model_after_epoch_n_is_the_model_of_an_n_epoch_run(self, tiny_dataset, tmp_path):
        # what a checkpoint after epoch 1 of a 3-epoch run held is model.txt
        # of the same run with --epochs 2, whose metrics.csv is a prefix
        train, test = tiny_dataset
        runs = {}
        for epochs in ("2", "3"):
            runs[epochs] = tmp_path / epochs
            code = run_cli(["train", "--train", train, "--test", test, "--out-dir",
                            str(runs[epochs]), "--seed", "4", *TINY_TRAIN_ARGS, "--epochs", epochs])
            assert code == EXIT_OK
        short = (runs["2"] / "metrics.csv").read_text().splitlines()
        assert short == (runs["3"] / "metrics.csv").read_text().splitlines()[:3]
        config = TrainConfig(**json.loads((runs["3"] / "manifest.json").read_text())["config"])
        saved = {}

        def save(metrics, model):
            saved[metrics.epoch] = tmp_path / f"epoch{metrics.epoch}.txt"
            save_mlp(model, saved[metrics.epoch])

        fit(read_pll_file(train), read_pll_file(test), config, on_epoch=save)
        assert saved[1].read_bytes() == (runs["2"] / "model.txt").read_bytes()
        assert saved[2].read_bytes() == (runs["3"] / "model.txt").read_bytes()


@pytest.fixture
def recorded_run(tiny_dataset, tmp_path):
    """A finished run on private copies of the tiny files: (manifest, train copy)."""
    train, test = tmp_path / "train.pll", tmp_path / "test.pll"
    for src, dst in zip(tiny_dataset, (train, test)):
        shutil.copyfile(src, dst)
    code = run_cli(["train", "--train", str(train), "--test", str(test),
                    "--out-dir", str(tmp_path / "a"), "--seed", "5", *TINY_TRAIN_ARGS])
    assert code == EXIT_OK
    return tmp_path / "a" / "manifest.json", train


def _edit_manifest(path, edit):
    loaded = json.loads(path.read_text())
    edit(loaded)
    path.write_text(json.dumps(loaded))


def _stopped(*args, **kwargs):
    """A ``fit`` stopped before its first epoch, as by Ctrl-C."""
    raise KeyboardInterrupt


class TestReplay:
    def test_explicit_out_dir_run_is_honoured(self, recorded_run, tmp_path, monkeypatch):
        manifest, _ = recorded_run
        monkeypatch.chdir(tmp_path)
        code = run_cli(["train", "--manifest", str(manifest), "--out-dir", "run", "--quiet"])
        assert code == EXIT_OK
        assert (tmp_path / "run" / "metrics.csv").read_bytes() == (
            manifest.parent / "metrics.csv"
        ).read_bytes()

    def test_replay_into_recorded_out_dir(self, recorded_run):
        manifest, _ = recorded_run
        out_dir = manifest.parent
        recorded = {name: (out_dir / name).read_bytes()
                    for name in ("manifest.json", "metrics.csv", "model.txt")}
        assert run_cli(["train", "--manifest", str(manifest), "--quiet"]) == EXIT_OK
        for name, content in recorded.items():
            assert (out_dir / name).read_bytes() == content

    def test_interrupted_replay_in_place_keeps_the_manifest(self, recorded_run, monkeypatch,
                                                            capsys):
        manifest, _ = recorded_run
        out_dir = manifest.parent
        recorded = {name: (out_dir / name).read_bytes()
                    for name in ("manifest.json", "metrics.csv", "model.txt")}

        def stopped(train, test, config, on_epoch):
            fit(train, test, dataclasses.replace(config, epochs=1), on_epoch=on_epoch)
            raise KeyboardInterrupt

        monkeypatch.setattr(cli_module, "fit", stopped)
        with pytest.raises(KeyboardInterrupt):
            run_cli(["train", "--manifest", str(manifest), "--quiet"])
        assert (out_dir / "manifest.json").read_bytes() == recorded["manifest.json"]
        assert not (out_dir / "model.txt").exists()
        monkeypatch.undo()
        assert run_cli(["train", "--manifest", str(manifest), "--quiet"]) == EXIT_OK
        assert "replay verified: metrics.csv, model.txt" in capsys.readouterr().out
        for name, content in recorded.items():
            assert (out_dir / name).read_bytes() == content

    def test_replay_through_another_path_to_the_manifest_keeps_it(self, recorded_run,
                                                                   monkeypatch):
        # the out dir is compared by real path, so ./a/../a is the same directory
        manifest, _ = recorded_run
        monkeypatch.chdir(manifest.parent.parent)
        recorded = manifest.read_bytes()
        monkeypatch.setattr(cli_module, "fit", _stopped)
        with pytest.raises(KeyboardInterrupt):
            run_cli(["train", "--manifest", "a/manifest.json", "--out-dir", "./a/../a", "--quiet"])
        assert manifest.read_bytes() == recorded

    def test_replay_elsewhere_writes_its_manifest_before_training(self, recorded_run, tmp_path,
                                                                  monkeypatch):
        manifest, _ = recorded_run
        monkeypatch.setattr(cli_module, "fit", _stopped)
        with pytest.raises(KeyboardInterrupt):
            run_cli(["train", "--manifest", str(manifest), "--out-dir", str(tmp_path / "b"),
                     "--quiet"])
        started = json.loads((tmp_path / "b" / "manifest.json").read_text())
        assert "output_sha256" not in started
        assert started["config"] == json.loads(manifest.read_text())["config"]

    @pytest.mark.parametrize(
        "flags, named",
        [(["--epochs", "7", "--lambda", "5", "--train", "m1.pll"],
          "--epochs, --lambda, --train"),
         (["--epochs", "3"], "--epochs"),  # the recorded value, still refused
         (["--hidden="], "--hidden"),
         (["--test", "t.pll"], "--test")],
        ids=["several", "recorded-value", "hidden-empty", "test"],
    )
    def test_run_flags_with_manifest_write_nothing(self, recorded_run, tmp_path, capsys,
                                                   flags, named):
        manifest, _ = recorded_run
        recorded = {p.name: p.read_bytes() for p in manifest.parent.iterdir()}
        out_dir = tmp_path / "b"
        for out in ([], ["--out-dir", str(out_dir)]):
            code = run_cli(["train", "--manifest", str(manifest), *out, *flags, "--quiet"])
            assert code == EXIT_USAGE
            assert f"{named} cannot be given with it" in capsys.readouterr().err
        assert not out_dir.exists()
        assert {p.name: p.read_bytes() for p in manifest.parent.iterdir()} == recorded

    def test_manifest_records_output_digests(self, tiny_dataset, tmp_path):
        train, test = tiny_dataset
        out_dir = tmp_path / "ck"
        code = run_cli(["train", "--train", train, "--test", test, "--out-dir", str(out_dir),
                        *TINY_TRAIN_ARGS])
        assert code == EXIT_OK
        assert sorted(os.listdir(out_dir)) == ["manifest.json", "metrics.csv", "model.txt"]
        loaded = json.loads((out_dir / "manifest.json").read_text())
        written = ["metrics.csv", "model.txt"]
        assert loaded["output_sha256"] == {
            name: hashlib.sha256((out_dir / name).read_bytes()).hexdigest() for name in written}
        assert loaded["platform"] == {"python": platform.python_version(),
                                      "numpy": np.__version__}

    def test_replay_with_other_threads_verifies(self, recorded_run, tmp_path, capsys):
        manifest, _ = recorded_run
        out_dir = tmp_path / "b"
        code = run_cli(["train", "--manifest", str(manifest), "--threads", "2",
                        "--out-dir", str(out_dir), "--quiet"])
        assert code == EXIT_OK
        assert (f"replay verified: metrics.csv, model.txt match the digests in {manifest}"
                in capsys.readouterr().out)
        for name in ("metrics.csv", "model.txt"):
            assert (out_dir / name).read_bytes() == (manifest.parent / name).read_bytes()
        assert json.loads((out_dir / "manifest.json").read_text())["config"]["threads"] == 2

    @pytest.mark.parametrize("name", ["metrics.csv", "model.txt"])
    def test_changed_output_digest_fails_naming_the_file(self, recorded_run, tmp_path, capsys,
                                                         name):
        manifest, _ = recorded_run
        recorded = json.loads(manifest.read_text())
        digest = recorded["output_sha256"][name]
        wrong = ("0" if digest[0] != "0" else "1") + digest[1:]
        _edit_manifest(manifest, lambda loaded: loaded["output_sha256"].update({name: wrong}))
        out_dir = tmp_path / "b"
        code = run_cli(["train", "--manifest", str(manifest), "--out-dir", str(out_dir),
                        "--quiet"])
        assert code == EXIT_CHECK_FAILED
        err = capsys.readouterr().err
        assert f"{name} has sha256 {digest}, recorded {wrong}" in err
        # every recorded platform field matches, as when only the BLAS thread
        # pool of the replay differs from the run's
        assert "platform differs" not in err
        assert err.endswith("; no recorded platform field differs, but the bits also depend "
                            "on the BLAS build, the CPU and the BLAS thread count, which the "
                            "manifest does not record\n")
        # the replay's own files stay, and its manifest lists their digests
        assert json.loads((out_dir / "manifest.json").read_text())["output_sha256"] == \
            recorded["output_sha256"]

    def test_failed_replay_in_place_keeps_the_recorded_digests(self, recorded_run, capsys):
        # the manifest a failed replay was checked against stays, so an
        # identical replay fails again instead of verifying its own digests
        manifest, _ = recorded_run
        _edit_manifest(manifest, lambda loaded: loaded["output_sha256"].update(
            {"metrics.csv": "0" * 64}))
        recorded = manifest.read_bytes()
        for _ in range(2):
            assert run_cli(["train", "--manifest", str(manifest), "--quiet"]) == EXIT_CHECK_FAILED
            assert "metrics.csv has sha256 " in capsys.readouterr().err
            assert manifest.read_bytes() == recorded

    def test_failed_verification_names_changed_platform_fields(self, recorded_run, tmp_path,
                                                               capsys):
        manifest, _ = recorded_run

        def edit(loaded):
            loaded["output_sha256"]["metrics.csv"] = "0" * 64
            loaded["platform"]["numpy"] = "1.0.0"
            loaded["toolkit_version"] = "0.2.0"

        _edit_manifest(manifest, edit)
        code = run_cli(["train", "--manifest", str(manifest), "--out-dir",
                        str(tmp_path / "b"), "--quiet"])
        assert code == EXIT_CHECK_FAILED
        # the platform fields end the message, which names nothing unrecorded
        assert capsys.readouterr().err.endswith(
            f"; platform differs: toolkit_version {cli_module.__version__} (recorded 0.2.0), "
            f"numpy {np.__version__} (recorded 1.0.0)\n")

    @pytest.mark.parametrize(
        "edit, message",
        [(lambda m: m.pop("output_sha256"), "missing field 'output_sha256', so the replay "
          "cannot be verified: the run predates 0.3.0, or it diverged or was stopped"),
         (lambda m: m.pop("platform"), "missing field 'platform'"),
         # what manifests before 0.3.0 hold
         (lambda m: [m.pop("output_sha256"), m.pop("platform"),
                     m.update(toolkit_version="0.2.0")], "missing field 'output_sha256'")],
        ids=["no-output-digests", "no-platform", "before-0.3.0"],
    )
    def test_manifest_without_digests_is_refused(self, recorded_run, tmp_path, monkeypatch,
                                                 capsys, edit, message):
        manifest, _ = recorded_run
        _edit_manifest(manifest, edit)

        def read_pll(path):
            raise AssertionError(f"read {path}")

        monkeypatch.setattr(cli_module, "_read_pll", read_pll)
        out_dir = tmp_path / "b"
        code = run_cli(["train", "--manifest", str(manifest), "--out-dir", str(out_dir),
                        "--quiet"])
        assert code == EXIT_IO
        assert message in capsys.readouterr().err
        assert not out_dir.exists()

    def test_checkpoint_digest_of_a_0_4_0_run_is_not_compared(self, recorded_run, tmp_path,
                                                              capsys):
        # 0.4.0's --checkpoint-every recorded each model_epoch<N>.txt it wrote
        manifest, _ = recorded_run
        _edit_manifest(manifest, lambda loaded: loaded["output_sha256"].update(
            {"model_epoch1.txt": "0" * 64}))
        out_dir = tmp_path / "b"
        code = run_cli(["train", "--manifest", str(manifest), "--out-dir", str(out_dir),
                        "--quiet"])
        assert code == EXIT_OK
        assert (f"replay verified: metrics.csv, model.txt match the digests in {manifest}"
                in capsys.readouterr().out)
        assert sorted(os.listdir(out_dir)) == ["manifest.json", "metrics.csv", "model.txt"]
        assert set(json.loads((out_dir / "manifest.json").read_text())["output_sha256"]) == {
            "metrics.csv", "model.txt"}

    def test_retired_modes_at_their_kept_values_replay(self, recorded_run, tmp_path, capsys):
        # every 0.3.0 manifest records the first two fields, at these values,
        # and every manifest before 0.10.0 the optimizer
        manifest, _ = recorded_run
        _edit_manifest(manifest, lambda loaded: loaded["config"].update(
            count_mode="nll", vote_mode="fractional", optimizer="adam"))
        out_dir = tmp_path / "b"
        code = run_cli(["train", "--manifest", str(manifest), "--out-dir", str(out_dir),
                        "--quiet"])
        assert code == EXIT_OK
        assert "replay verified: metrics.csv, model.txt" in capsys.readouterr().out
        config = json.loads((out_dir / "manifest.json").read_text())["config"]
        assert not {"count_mode", "vote_mode", "optimizer"} & config.keys()

    @pytest.mark.parametrize("window", [3, 10])
    def test_recorded_eval_window_replays_at_any_value(self, recorded_run, tmp_path, capsys,
                                                       window):
        # every 0.5.0 manifest records eval_window; it set only the summary line
        manifest, _ = recorded_run
        _edit_manifest(manifest, lambda loaded: loaded["config"].update(eval_window=window))
        out_dir = tmp_path / "b"
        code = run_cli(["train", "--manifest", str(manifest), "--out-dir", str(out_dir),
                        "--quiet"])
        assert code == EXIT_OK
        assert "replay verified: metrics.csv, model.txt" in capsys.readouterr().out
        for name in ("metrics.csv", "model.txt"):
            assert (out_dir / name).read_bytes() == (manifest.parent / name).read_bytes()
        assert "eval_window" not in json.loads((out_dir / "manifest.json").read_text())["config"]

    @pytest.mark.parametrize("field, value", [("count_mode", "entropy"),
                                              ("vote_mode", "multiset")])
    def test_retired_mode_is_refused_before_any_read(self, recorded_run, tmp_path, monkeypatch,
                                                      capsys, field, value):
        manifest, _ = recorded_run
        _edit_manifest(manifest, lambda loaded: loaded["config"].update(
            {"count_mode": "nll", "vote_mode": "fractional", field: value}))

        def read_pll(path):
            raise AssertionError(f"read {path}")

        monkeypatch.setattr(cli_module, "_read_pll", read_pll)
        out_dir = tmp_path / "b"
        code = run_cli(["train", "--manifest", str(manifest), "--out-dir", str(out_dir),
                        "--quiet"])
        assert code == EXIT_IO
        assert (f"{manifest}: config {field} {value!r} names a mode removed in 0.4.0"
                in capsys.readouterr().err)
        assert not out_dir.exists()

    @pytest.mark.parametrize(
        "settings, message",
        [({"knn_scope": "global", "knn_features": "embedding", "hidden": [8]},
          "config knn_scope 'global' with knn_features 'embedding' names a mode removed in 0.8.0"),
         ({"knn_scope": "global", "knn_features": "embedding", "hidden": []},
          "config knn_scope 'global' with knn_features 'embedding' names a mode removed in 0.8.0"),
         ({"optimizer": "sgd"}, "config optimizer 'sgd' names a mode removed in 0.9.0"),
         ({"knn_features": "embedding", "hidden": []},
          "config knn_features 'embedding' with hidden () names a mode removed in 0.9.0"),
         ({"optimizer": "foo"}, "config optimizer 'foo' names a mode removed in 0.10.0")],
        ids=["hidden0", "hidden1", "sgd", "embedding-no-hidden", "optimizer-foo"],
    )
    def test_global_scope_over_the_embedding_is_refused_before_any_read(
            self, recorded_run, tmp_path, monkeypatch, capsys, settings, message):
        # named before 0.9.0; every removed TrainConfig setting is refused this way
        manifest, _ = recorded_run
        _edit_manifest(manifest, lambda loaded: loaded["config"].update(settings))

        def read_pll(path):
            raise AssertionError(f"read {path}")

        monkeypatch.setattr(cli_module, "_read_pll", read_pll)
        out_dir = tmp_path / "b"
        code = run_cli(["train", "--manifest", str(manifest), "--out-dir", str(out_dir),
                        "--quiet"])
        assert code == EXIT_IO
        assert f"{manifest}: {message}" in capsys.readouterr().err
        assert not out_dir.exists()

    @pytest.mark.parametrize(
        "edit",
        [lambda d: d.pop("model.txt"), lambda d: d.update({"metrics.csv": 5})],
        ids=["missing-model", "number"],
    )
    def test_malformed_output_digests_write_nothing(self, recorded_run, tmp_path, capsys, edit):
        manifest, _ = recorded_run
        _edit_manifest(manifest, lambda loaded: edit(loaded["output_sha256"]))
        out_dir = tmp_path / "b"
        code = run_cli(["train", "--manifest", str(manifest), "--out-dir", str(out_dir),
                        "--quiet"])
        assert code == EXIT_IO
        assert "output_sha256 must map names to strings" in capsys.readouterr().err
        assert not out_dir.exists()

    def test_changed_train_file_is_refused(self, recorded_run, tmp_path, capsys):
        manifest, train = recorded_run
        lines = train.read_text().splitlines(keepends=True)
        truth, cands, feats = lines[1].split(";")
        first, rest = feats.split(" ", 1)
        lines[1] = f"{truth};{cands};{float(first) + 1.0!r} {rest}"
        train.write_text("".join(lines))
        read_pll_file(train)  # still a valid file, just a different one
        code = run_cli(["train", "--manifest", str(manifest),
                        "--out-dir", str(tmp_path / "b"), "--quiet"])
        assert code == EXIT_IO
        assert str(train) in capsys.readouterr().err
        assert not (tmp_path / "b").exists()

    def test_replay_compares_the_digest_of_the_bytes_it_read(self, recorded_run, tmp_path,
                                                               monkeypatch, capsys):
        # as if the file changed after any earlier look and before the read
        manifest, train = recorded_run
        read_pll = cli_module._read_pll

        def changed_train(path):
            dataset, digest = read_pll(path)
            return dataset, "0" * 64 if path == str(train) else digest

        monkeypatch.setattr(cli_module, "_read_pll", changed_train)
        code = run_cli(["train", "--manifest", str(manifest),
                        "--out-dir", str(tmp_path / "b"), "--quiet"])
        assert code == EXIT_IO
        assert f"{train} differs from the file it recorded" in capsys.readouterr().err
        assert not (tmp_path / "b").exists()

    def test_replay_hashes_only_the_files_it_wrote(self, recorded_run, tmp_path, monkeypatch):
        manifest, _ = recorded_run
        hashed = []
        sha256 = cli_module._sha256
        monkeypatch.setattr(cli_module, "_sha256", lambda path: hashed.append(path) or sha256(path))
        out_dir = tmp_path / "b"
        code = run_cli(["train", "--manifest", str(manifest), "--out-dir", str(out_dir), "--quiet"])
        assert code == EXIT_OK
        assert hashed == [str(out_dir / name) for name in ("metrics.csv", "model.txt")]

    def test_run_recorded_from_a_pipe_is_refused(self, recorded_run, tmp_path, capsys):
        manifest, train = recorded_run
        _edit_manifest(manifest, lambda loaded: loaded.update(train_sha256=None))
        code = run_cli(["train", "--manifest", str(manifest),
                        "--out-dir", str(tmp_path / "b"), "--quiet"])
        assert code == EXIT_IO
        assert f"{train} was not a regular file" in capsys.readouterr().err
        assert not (tmp_path / "b").exists()

    @pytest.mark.parametrize("field", ["train_path", "train_sha256", "test_sha256"])
    def test_missing_field_is_refused(self, recorded_run, tmp_path, capsys, field):
        manifest, _ = recorded_run
        _edit_manifest(manifest, lambda loaded: loaded.pop(field))
        code = run_cli(["train", "--manifest", str(manifest),
                        "--out-dir", str(tmp_path / "b"), "--quiet"])
        assert code == EXIT_IO
        assert f"missing field {field!r}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "edit, message",
        [(lambda m: {**m, "train_path": None}, "train_path must be a string, got None"),
         (lambda m: {**m, "test_path": None}, "test_path must be a string, got None"),
         (lambda m: {**m, "out_dir": None}, "out_dir must be a string, got None"),
         (lambda m: {**m, "out_dir": 5}, "out_dir must be a string, got 5"),
         (lambda m: {**m, "toolkit_version": None}, "toolkit_version must be a string"),
         (lambda m: {**m, "train_sha256": 5}, "train_sha256 must be a string or null, got 5"),
         (lambda m: {**m, "platform": {"python": m["platform"]["python"]}},
          "platform must map names to strings and list python, numpy"),
         (lambda m: [m], "the manifest is not a JSON object")],
        ids=["train-null", "test-null", "out-dir-null", "out-dir-number", "version-null",
             "train-digest-number", "platform-without-numpy", "top-level-list"],
    )
    def test_malformed_manifest_writes_nothing(self, recorded_run, tmp_path, monkeypatch,
                                               capsys, edit, message):
        manifest, _ = recorded_run
        manifest.write_text(json.dumps(edit(json.loads(manifest.read_text()))))
        monkeypatch.chdir(tmp_path)

        def tree():
            return {p: p.is_file() and p.read_bytes() for p in tmp_path.rglob("*")}

        before = tree()
        assert run_cli(["train", "--manifest", str(manifest), "--quiet"]) == EXIT_IO
        assert message in capsys.readouterr().err
        assert tree() == before

    @pytest.mark.parametrize("content", [b"\xff\xfe{}", b"{\"config\": "],
                             ids=["not-utf8", "truncated"])
    def test_manifest_that_is_not_json_text_is_refused(self, recorded_run, tmp_path, capsys,
                                                       content):
        manifest, _ = recorded_run
        manifest.write_bytes(content)
        out_dir = tmp_path / "b"
        code = run_cli(["train", "--manifest", str(manifest), "--out-dir", str(out_dir),
                        "--quiet"])
        assert code == EXIT_IO
        assert f"{manifest}: the manifest is not JSON text" in capsys.readouterr().err
        assert not out_dir.exists()

    def test_unknown_config_field_is_refused(self, recorded_run, tmp_path, capsys):
        manifest, _ = recorded_run
        recorded = manifest.read_text()
        # fields of older manifests: precision went with the float32 mode,
        # eval_stride (every manifest before 0.2.0) when fit began evaluating every epoch
        for field, value in (("bogus", 1), ("precision", "double"), ("eval_stride", 1)):
            manifest.write_text(recorded)
            _edit_manifest(manifest, lambda loaded: loaded["config"].update({field: value}))
            code = run_cli(["train", "--manifest", str(manifest),
                            "--out-dir", str(tmp_path / "b"), "--quiet"])
            assert code == EXIT_IO
            assert field in capsys.readouterr().err

    @pytest.mark.parametrize(
        "edit, message",
        [({"knn_scope": "window"}, "unknown knn_scope 'window'"),
         ({"hidden": [0]}, "hidden widths must be >= 1"),
         ({"seed": -1}, "seed must be >= 0"),
         ({"lam": math.nan}, "lambda must be finite"),
         ({"epochs": 2.5}, "epochs must be an integer, got 2.5"),
         ({"hidden": [2.7]}, "hidden widths must be integers"),
         ({"epochs": "3"}, "epochs must be an integer, got '3'"),
         ({"lr": True}, "lr must be a number, got True"),
         ({"temperature": "3.0"}, "temperature must be a number, got '3.0'"),
         ({"hidden": 300}, "hidden widths must be integers in a list, got 300")],
        ids=["knn-scope", "hidden", "seed", "lam", "epochs", "hidden-fraction",
             "epochs-string", "lr-bool", "temperature-string", "hidden-int"],
    )
    def test_refused_config_value_writes_nothing(self, recorded_run, tmp_path, capsys,
                                                 edit, message):
        manifest, _ = recorded_run
        _edit_manifest(manifest, lambda loaded: loaded["config"].update(edit))
        out_dir = tmp_path / "b"
        code = run_cli(["train", "--manifest", str(manifest), "--out-dir", str(out_dir),
                        "--quiet"])
        assert code == EXIT_USAGE
        assert message in capsys.readouterr().err
        assert not out_dir.exists()


def _train_parser() -> argparse.ArgumentParser:
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    return sub.choices["train"]


RUN_FLAGS = {"--manifest", "--train", "--test", "--out-dir", "--quiet"}


class TestTrainFlags:
    """The train flags are generated from TrainConfig's fields."""

    def test_one_flag_per_config_field_plus_run_flags(self):
        actions = [a for a in _train_parser()._actions if a.option_strings != ["-h", "--help"]]
        flags = {a.option_strings[0]: a for a in actions}
        assert all(len(a.option_strings) == 1 for a in actions)
        assert set(flags) == RUN_FLAGS | {
            "--epochs", "--batch-size", "--lr", "--weight-decay", "--k", "--temperature",
            "--lambda", "--knn-scope", "--knn-features", "--hidden", "--seed",
            "--threads",
        }
        config_dests = {a.dest for flag, a in flags.items() if flag not in RUN_FLAGS}
        assert config_dests == {f.name for f in dataclasses.fields(TrainConfig)}
        choices = {flag: list(a.choices) for flag, a in flags.items() if a.choices}
        assert choices == {
            "--knn-scope": ["batch", "global"],
            "--knn-features": ["raw", "embedding"],
        }

    def test_defaults_are_the_config_defaults(self):
        args = _train_parser().parse_args([])
        assert _config_from_args(args) == TrainConfig()

    def test_hidden_list_and_lambda_flag(self):
        args = _train_parser().parse_args(["--hidden=", "--lambda", "0"])
        config = _config_from_args(args)
        assert config.hidden == ()
        assert config.lam == 0.0
        args = _train_parser().parse_args(["--hidden", "16,8"])
        assert _config_from_args(args).hidden == (16, 8)

    @pytest.mark.parametrize("value", ["3,,4", "8,", ","])
    def test_empty_hidden_width_exits_through_argparse(self, capsys, value):
        with pytest.raises(SystemExit) as exc:
            _train_parser().parse_args([f"--hidden={value}"])
        assert exc.value.code == EXIT_USAGE
        assert f"argument --hidden: {value!r} has an empty width" in capsys.readouterr().err

    def test_width_that_is_not_an_integer_exits_through_argparse(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli(["train", "--hidden", "8,x"])
        assert exc.value.code == EXIT_USAGE
        err = capsys.readouterr().err
        assert "argument --hidden: 'x' is not an integer width" in err
        assert "_widths" not in err

    def test_bad_choice_exits_through_argparse(self, capsys):
        for value in ("foo", "window"):
            with pytest.raises(SystemExit) as exc:
                run_cli(["train", "--knn-scope", value])
            assert exc.value.code == EXIT_USAGE
            assert f"invalid choice: '{value}'" in capsys.readouterr().err


def _tied(k: int) -> str:
    """--avg-ranks of k algorithms tied in every case."""
    return ",".join([str((k + 1) / 2)] * k)


class TestStats:
    def test_avg_ranks_reproduce_reference_statistics(self, capsys):
        code = run_cli(["stats", "--avg-ranks",
                        "3.56,3.00,3.16,5.36,6.24,6.52,7.08,1.12",
                        "--cases", "25", "--q-alpha", "2.690"])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        f_f = float(out.split("F_F=")[1].splitlines()[0])
        cd = float(out.split("CD=")[1].split()[0])
        assert abs(f_f - 69.4) <= 0.2
        assert abs(cd - 1.864) <= 0.001

    @pytest.mark.parametrize("k", [2, 3, 10])
    def test_default_q_alpha_is_the_one_for_k(self, capsys, k):
        assert run_cli(["stats", "--avg-ranks", _tied(k), "--cases", "25"]) == EXIT_OK
        out = capsys.readouterr().out
        assert f"(q_alpha={Q_ALPHA_05[k]})" in out
        want = Q_ALPHA_05[k] * math.sqrt(k * (k + 1) / (6.0 * 25))
        assert float(out.split("CD=")[1].split()[0]) == pytest.approx(want, rel=1e-5)

    def test_default_q_alpha_follows_the_csv_columns(self, tmp_path, capsys):
        path = tmp_path / "acc.csv"
        path.write_text("a,b,c\n0.9,0.8,0.7\n0.7,0.8,0.6\n0.9,0.6,0.8\n")
        assert run_cli(["stats", "--csv", str(path)]) == EXIT_OK
        assert f"(q_alpha={Q_ALPHA_05[3]})" in capsys.readouterr().out

    def test_k_outside_the_table_needs_q_alpha(self, capsys):
        assert run_cli(["stats", "--avg-ranks", _tied(11), "--cases", "25"]) == EXIT_USAGE
        assert "--q-alpha" in capsys.readouterr().err
        assert run_cli(["stats", "--avg-ranks", _tied(11), "--cases", "25",
                        "--q-alpha", "2.8"]) == EXIT_OK

    @pytest.mark.parametrize("flags", [["--csv", "ONE"], ["--avg-ranks", "1", "--cases", "5"]])
    def test_one_algorithm_is_refused_before_q_alpha(self, tmp_path, capsys, flags):
        # no q_alpha would help: the critical difference needs two algorithms
        path = tmp_path / "one.csv"
        path.write_text("a\n0.9\n0.7\n")
        flags = [str(path) if flag == "ONE" else flag for flag in flags]
        assert run_cli(["stats", *flags]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert "k >= 2" in captured.err and "--q-alpha" not in captured.err
        assert captured.out == ""

    def test_csv_equal_columns_give_zero(self, tmp_path, capsys):
        path = tmp_path / "acc.csv"
        path.write_text("a,b,c\n0.5,0.5,0.5\n0.7,0.7,0.7\n")
        code = run_cli(["stats", "--csv", str(path)])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert float(out.split("F_F=")[1].splitlines()[0]) == 0.0

    @pytest.mark.parametrize("ranks, message", [("1.5,nan,3", "must be finite"),
                                                ("1,1,1", "come from no ranking")])
    def test_avg_ranks_from_no_ranking_are_refused(self, capsys, ranks, message):
        assert run_cli(["stats", "--avg-ranks", ranks, "--cases", "5"]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert message in captured.err
        assert "chi2=" not in captured.out

    def test_repeated_column_is_refused(self, tmp_path, capsys):
        # a repeated name would rank twice
        path = tmp_path / "acc.csv"
        path.write_text("a,b,a\n0.9,0.8,0.7\n0.7,0.8,0.6\n0.9,0.6,0.8\n")
        assert run_cli(["stats", "--csv", str(path)]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert f"{path}: the header names column 'a' twice" in captured.err
        assert "CD=" not in captured.out

    @pytest.mark.parametrize("token", ["inf", "1e999", "-inf", "nan"])
    def test_non_finite_accuracy_is_refused(self, tmp_path, capsys, token):
        # inf (1e999 parses to it) would otherwise rank as the best entry
        path = tmp_path / "acc.csv"
        path.write_text(f"a,b,c\n0.9,0.8,0.7\n0.7,{token},0.6\n0.9,0.6,0.8\n")
        assert run_cli(["stats", "--csv", str(path)]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert f"{path}:3: accuracy {token!r} is not finite" in captured.err
        assert "accuracies must be finite" in captured.err
        assert "chi2=" not in captured.out and "CD=" not in captured.out

    def test_csv_without_rows_is_refused(self, tmp_path, capsys):
        path = tmp_path / "acc.csv"
        path.write_text("a,b\n")
        assert run_cli(["stats", "--csv", str(path)]) == EXIT_USAGE
        assert f"{path}: the CSV has no rows below its header" in capsys.readouterr().err

    def test_malformed_csv_reports_location(self, tmp_path, capsys):
        path = tmp_path / "acc.csv"
        path.write_text("a,b\n0.9,oops\n")
        assert run_cli(["stats", "--csv", str(path)]) == EXIT_USAGE
        assert ":2:" in capsys.readouterr().err

    def test_missing_inputs_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            run_cli(["stats"])
        assert exc.value.code == EXIT_USAGE

    @pytest.mark.parametrize(
        "flags, message",
        [(["--avg-ranks", "1.9,2.0,2.3", "--cases", "50"], "come from no ranking"),
         (["--avg-ranks", "1.5,1.5,3", "--cases", "5", "--csv", "ACC"], "not allowed with"),
         (["--csv", "ACC", "--cases", "99"], "--cases cannot be given with --csv"),
         (["--csv", "ACC", "--k", "7"], "unrecognized arguments: --k 7"),
         (["--avg-ranks", "1.5,1.5,3", "--cases", "5", "--k", "9"],
          "unrecognized arguments: --k 9"),
         (["--avg-ranks", "1.5,1.5,3"], "--avg-ranks needs --cases"),
         (["--avg-ranks", "1,2,x", "--cases", "5"],
          "--avg-ranks '1,2,x': rank 'x' is not a number; give comma-separated ranks"),
         (["--avg-ranks", "1,,3", "--cases", "5"],
          "--avg-ranks '1,,3': rank '' is not a number; give comma-separated ranks")],
        ids=["avg-ranks-sum", "avg-ranks-and-csv", "csv-and-cases", "csv-and-k",
             "avg-ranks-and-k", "avg-ranks-without-cases", "avg-ranks-letter",
             "avg-ranks-empty-token"],
    )
    def test_inputs_no_report_answers_are_refused(self, tmp_path, capsys, flags, message):
        path = tmp_path / "acc.csv"
        path.write_text("a,b,c,d\n0.9,0.8,0,0\n0.7,0.8,0,0\n0.9,0.6,0,0\n")
        flags = [str(path) if flag == "ACC" else flag for flag in flags]
        try:
            code = run_cli(["stats", *flags])
        except SystemExit as exc:  # argparse's own usage errors
            code = exc.code
        assert code == EXIT_USAGE
        captured = capsys.readouterr()
        assert message in captured.err
        assert "chi2=" not in captured.out and "CD=" not in captured.out

    @pytest.mark.parametrize(
        "flags, message",
        [(["--avg-ranks", "2,2,2", "--cases", "0"], "Friedman test needs >= 2 cases"),
         (["--avg-ranks", "2,2,2", "--cases", "-5"], "Friedman test needs >= 2 cases"),
         (["--avg-ranks", "2,2,2", "--cases", "25", "--q-alpha", "nan"],
          "q_alpha must be finite"),
         (["--avg-ranks", "2,2,2", "--cases", "25", "--q-alpha", "inf"],
          "q_alpha must be finite"),
         (["--avg-ranks", "1", "--cases", "25", "--q-alpha", "2.0"], "k >= 2")],
        ids=["cases-0", "cases-negative", "q-nan", "q-inf", "k-1"],
    )
    def test_bad_cd_inputs_are_usage_errors(self, capsys, flags, message):
        assert run_cli(["stats", *flags]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert message in captured.err
        assert "CD=" not in captured.out


class TestCheck:
    def test_fresh_build_passes(self, capsys):
        code = run_cli(["check"])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "FAIL" not in out
        assert out.count("PASS") == 12

    @pytest.mark.parametrize("error", [OverflowError, ValueError])
    def test_raising_check_fails_alone(self, monkeypatch, capsys, error):
        # one check raising is one FAIL line and its traceback on stderr,
        # not an abort or a usage error
        def check_enhanced_labels(rng):
            raise error("votes overflowed")

        monkeypatch.setattr(checks_module, "check_enhanced_labels", check_enhanced_labels)
        code = run_cli(["check"])
        out, err = capsys.readouterr()
        lines = out.splitlines()
        assert err.startswith("Traceback")
        assert 'raise error("votes overflowed")' in err
        assert code == EXIT_CHECK_FAILED
        assert sum(line.startswith("PASS ") for line in lines) == 11
        assert [line for line in lines if line.startswith("FAIL ")] == [
            f"FAIL check_enhanced_labels: raised {error.__name__}: votes overflowed"
        ]
        assert len(lines) == 12

    def test_injected_off_by_one_fails_named_check(self, monkeypatch):
        def broken_pmf(log_p):
            return np.roll(count_log_pmf(log_p), 1)

        monkeypatch.setattr(checks_module, "count_log_pmf", broken_pmf)
        result = check_count_pmf(np.random.default_rng(0), cases=20)
        assert result.name == "count-pmf-vs-enumeration"
        assert not result.passed

    def test_values_out_of_batch_order_fail_named_check(self, monkeypatch):
        values = []

        def previous_batch_value(probs, lo, hi):
            values.append(count_loss_value(probs, lo, hi))
            return values[-2] if len(values) > 1 else values[-1]

        monkeypatch.setattr(checks_module, "count_loss_value", previous_batch_value)
        result = check_count_values(np.random.default_rng(0))
        assert result.name == "count-values-vs-enumeration"
        assert not result.passed

    def test_fallback_value_one_ulp_off_fails_named_check(self, monkeypatch):
        def one_ulp_up(probs, lo, hi):
            return math.nextafter(count_loss_value(probs, lo, hi), math.inf)

        monkeypatch.setattr(checks_module, "count_loss_value", one_ulp_up)
        result = check_count_loss_log_fallback(np.random.default_rng(0))
        assert result.name == "count-loss-log-fallback-n1024"
        assert not result.passed

    def test_trainer_grad_gates_the_trainers_own_chain(self, monkeypatch):
        # a sign error in the count-loss gradient the trainer uses must fail
        # the check; its finite-difference reference keeps the true loss
        count_loss = trainer_module.count_loss

        def flipped(*args, **kwargs):
            res = count_loss(*args, **kwargs)
            return CountLossResult(loss=res.loss, grad=-res.grad, saturated=res.saturated)

        monkeypatch.setattr(trainer_module, "count_loss", flipped)
        result = check_trainer_grad(np.random.default_rng(0), cases=5)
        assert result.name == "trainer-grad-vs-fd"
        assert not result.passed


@pytest.mark.parametrize(
    "argv",
    [["countloss-check"], ["check", "--n", "64"], ["stats", "--n", "25", "--k", "3"],
     ["train", "--count-mode", "nll"], ["train", "--vote-mode", "fractional"],
     ["train", "--train", "TRAIN", "--test", "TEST", "--checkpoint-every", "1"],
     ["generate", "--gaussian", "-o", "x.pll", "--mode", "binomial"],
     ["stats", "--k", "3", "--cases", "25"],
     ["train", "--train", "TRAIN", "--test", "TEST", "--eval-window", "3"],
     ["check", "--seed", "1"],
     ["stats", "--csv", "acc.csv", "--fixed-rank", "a=1"],
     ["train", "--train", "TRAIN", "--test", "TEST", "--optimizer", "adam"]],
    ids=["check-alias", "check-n", "stats-n", "count-mode", "vote-mode", "checkpoint-every",
         "generate-mode", "stats-k", "eval-window", "check-seed", "stats-fixed-rank",
         "optimizer"],
)
def test_removed_names_are_usage_errors(tiny_dataset, tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    files = dict(zip(("TRAIN", "TEST"), tiny_dataset))
    with pytest.raises(SystemExit) as exc:
        run_cli([files.get(arg, arg) for arg in argv])
    assert exc.value.code == EXIT_USAGE
    assert capsys.readouterr().out == ""
    assert list(tmp_path.iterdir()) == []


def test_import_loads_no_scipy(tmp_path):
    """numpy is the only runtime dependency: importing the package loads no
    scipy, and with scipy unimportable every subcommand still exits 0."""
    code = ("import sys, cleanse, cleanse.cli, cleanse.trainer; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    src = os.path.dirname(os.path.dirname(os.path.abspath(trainer_module.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "[]"

    (tmp_path / "acc.csv").write_text("a,b,c,d\n0.9,0.8,0.8,0\n0.7,0.9,0.6,0\n0.5,0.5,0.5,0\n")
    runs = [
        ["stats", "--csv", "acc.csv"],
        ["stats", "--avg-ranks", "3.56,3.00,3.16,5.36,6.24,6.52,7.08,1.12", "--cases", "25"],
        ["check"],
        ["generate", "--gaussian", "--n", "80", "--seed", "3", "--test-fraction", "0.25",
         "-o", "train.pll", "--test-out", "test.pll"],
        ["train", "--train", "train.pll", "--test", "test.pll", "--epochs", "1",
         "--hidden", "4", "--quiet"],
    ]
    code = ("import sys; sys.modules['scipy'] = None  # every scipy import now fails\n"
            "from cleanse.cli import main\n"
            f"print([main(argv) for argv in {runs!r}])")
    out = subprocess.run([sys.executable, "-c", code], env=env, cwd=tmp_path,
                         capture_output=True, text=True, check=True).stdout
    assert out.splitlines()[-1] == str([0] * len(runs))
