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

import cleanse.cli as cli_module
import cleanse.trainer as trainer_module
from cleanse.checks import check_count_pmf, check_count_values, check_trainer_grad
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
from cleanse.countloss import CountLossResult, count_log_pmf, count_loss_values
from cleanse.data import PartialDataset, read_pll_file, write_pll_file
from cleanse.neural import load_mlp
from cleanse.stats import Q_ALPHA_05
from cleanse.trainer import TrainConfig


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


TINY_TRAIN_ARGS = ["--epochs", "3", "--batch-size", "32", "--hidden", "8",
                   "--eval-window", "3", "--quiet"]


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

    def test_entropy_mode_column_matches_library(self, tiny_dataset, tmp_path):
        from cleanse.data import read_pll_file as rp
        from cleanse.trainer import TrainConfig, fit

        train, test = tiny_dataset
        out_dir = tmp_path / "ent"
        code = run_cli(["train", "--train", train, "--test", test,
                        "--out-dir", str(out_dir), "--seed", "3",
                        "--count-mode", "entropy", *TINY_TRAIN_ARGS])
        assert code == EXIT_OK
        rows = [row.split(",") for row in
                (out_dir / "metrics.csv").read_text().splitlines()[1:]]
        config = TrainConfig(epochs=3, batch_size=32, hidden=(8,), seed=3,
                             count_mode="entropy", eval_window=3)
        _, history = fit(rp(train), rp(test), config)
        assert [f"{h.count_loss:.9g}" for h in history] == [
            f"{float(r[2]):.9g}" for r in rows
        ]

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
                            "--out-dir", str(out_dir), "--optimizer", "sgd", "--lr", "10",
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
                        "--checkpoint-every", "1", *TINY_TRAIN_ARGS])
        assert code == EXIT_OK
        assert {"model.txt", "model_epoch0.txt"} <= set(os.listdir(out_dir))
        (out_dir / "notes.txt").write_text("kept\n")
        ds = read_pll_file(train)
        huge = tmp_path / "huge.pll"
        write_pll_file(PartialDataset(ds.features * 1e30, ds.candidates, ds.m,
                                      ds.hidden_truth), huge)
        with np.errstate(all="ignore"):
            code = run_cli(["train", "--train", str(huge), "--test", test,
                            "--out-dir", str(out_dir), "--optimizer", "sgd", "--lr", "10",
                            *TINY_TRAIN_ARGS])
        assert code == EXIT_DIVERGED
        assert sorted(os.listdir(out_dir)) == ["manifest.json", "metrics.csv", "notes.txt"]
        assert json.loads((out_dir / "manifest.json").read_text())["train_path"] == str(huge)

    def test_periodic_checkpoints(self, tiny_dataset, tmp_path):
        train, test = tiny_dataset
        out_dir = tmp_path / "ck"
        code = run_cli(["train", "--train", train, "--test", test,
                        "--out-dir", str(out_dir), "--seed", "4",
                        "--checkpoint-every", "2", *TINY_TRAIN_ARGS])
        assert code == EXIT_OK
        assert (out_dir / "model_epoch1.txt").exists()
        assert not (out_dir / "model_epoch2.txt").exists()
        assert (out_dir / "model.txt").exists()

    def test_negative_checkpoint_interval_is_usage_error(self, tiny_dataset, tmp_path, capsys):
        train, test = tiny_dataset
        out_dir = tmp_path / "ck"
        code = run_cli(["train", "--train", train, "--test", test,
                        "--out-dir", str(out_dir), "--checkpoint-every", "-1",
                        *TINY_TRAIN_ARGS])
        assert code == EXIT_USAGE
        assert "--checkpoint-every" in capsys.readouterr().err
        assert not out_dir.exists()


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

    def test_checkpoints_combine_with_replay(self, recorded_run, tmp_path):
        manifest, _ = recorded_run
        out_dir = tmp_path / "b"
        code = run_cli(["train", "--manifest", str(manifest), "--out-dir", str(out_dir),
                        "--checkpoint-every", "1", "--quiet"])
        assert code == EXIT_OK
        assert (out_dir / "model_epoch2.txt").read_bytes() == (out_dir / "model.txt").read_bytes()
        assert (out_dir / "metrics.csv").read_bytes() == (
            manifest.parent / "metrics.csv"
        ).read_bytes()

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
                        "--checkpoint-every", "2", *TINY_TRAIN_ARGS])
        assert code == EXIT_OK
        loaded = json.loads((out_dir / "manifest.json").read_text())
        written = ["metrics.csv", "model.txt", "model_epoch1.txt"]
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
        assert "platform differs" not in err
        # the replay's own files stay, and its manifest lists their digests
        assert json.loads((out_dir / "manifest.json").read_text())["output_sha256"] == \
            recorded["output_sha256"]

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
        assert (f"; platform differs: toolkit_version {cli_module.__version__} (recorded 0.2.0), "
                f"numpy {np.__version__} (recorded 1.0.0)" in capsys.readouterr().err)

    def test_manifest_without_digests_replays_unverified(self, recorded_run, tmp_path, capsys):
        # what manifests before output digests hold
        manifest, _ = recorded_run
        _edit_manifest(manifest, lambda loaded: [loaded.pop("output_sha256"),
                                                 loaded.pop("platform")])
        out_dir = tmp_path / "b"
        code = run_cli(["train", "--manifest", str(manifest), "--out-dir", str(out_dir),
                        "--quiet"])
        assert code == EXIT_OK
        captured = capsys.readouterr()
        assert "records no output digests" in captured.err
        assert "cannot be verified" in captured.err
        assert "replay verified" not in captured.out
        assert (out_dir / "metrics.csv").read_bytes() == (
            manifest.parent / "metrics.csv").read_bytes()

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
         (lambda m: [m], "the manifest is not a JSON object")],
        ids=["train-null", "test-null", "out-dir-null", "out-dir-number", "top-level-list"],
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
        [({"optimizer": "foo"}, "unknown optimizer 'foo'"),
         ({"hidden": [0]}, "hidden widths must be >= 1"),
         ({"seed": -1}, "seed must be >= 0"),
         ({"lam": math.nan}, "lambda must be finite"),
         ({"epochs": 2.5}, "epochs must be an integer, got 2.5"),
         ({"hidden": [2.7]}, "hidden widths must be integers"),
         ({"epochs": "3"}, "epochs must be an integer, got '3'"),
         ({"lr": True}, "lr must be a number, got True"),
         ({"temperature": "3.0"}, "temperature must be a number, got '3.0'"),
         ({"hidden": 300}, "hidden widths must be integers in a list, got 300")],
        ids=["optimizer", "hidden", "seed", "lam", "epochs", "hidden-fraction",
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


RUN_FLAGS = {"--manifest", "--train", "--test", "--out-dir", "--checkpoint-every", "--quiet"}


class TestTrainFlags:
    """The train flags are generated from TrainConfig's fields."""

    def test_one_flag_per_config_field_plus_run_flags(self):
        actions = [a for a in _train_parser()._actions if a.option_strings != ["-h", "--help"]]
        flags = {a.option_strings[0]: a for a in actions}
        assert all(len(a.option_strings) == 1 for a in actions)
        assert set(flags) == RUN_FLAGS | {
            "--epochs", "--batch-size", "--lr", "--weight-decay", "--k", "--temperature",
            "--lambda", "--count-mode", "--knn-scope", "--knn-features", "--vote-mode",
            "--optimizer", "--hidden", "--seed", "--eval-window", "--threads",
        }
        config_dests = {a.dest for flag, a in flags.items() if flag not in RUN_FLAGS}
        assert config_dests == {f.name for f in dataclasses.fields(TrainConfig)}
        choices = {flag: list(a.choices) for flag, a in flags.items() if a.choices}
        assert choices == {
            "--count-mode": ["nll", "entropy"],
            "--knn-scope": ["batch", "global"],
            "--knn-features": ["raw", "embedding"],
            "--vote-mode": ["fractional", "multiset"],
            "--optimizer": ["adam", "sgd"],
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

    def test_bad_choice_exits_through_argparse(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli(["train", "--optimizer", "foo"])
        assert exc.value.code == EXIT_USAGE
        assert "invalid choice: 'foo'" in capsys.readouterr().err


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

    def test_cd_only_mode(self, capsys):
        code = run_cli(["stats", "--q-alpha", "2.690", "--k", "8", "--cases", "25"])
        assert code == EXIT_OK
        cd = float(capsys.readouterr().out.split("CD=")[1].split()[0])
        assert abs(cd - 1.864) <= 0.001

    @pytest.mark.parametrize("k", [2, 3, 10])
    def test_default_q_alpha_is_the_one_for_k(self, capsys, k):
        assert run_cli(["stats", "--k", str(k), "--cases", "25"]) == EXIT_OK
        out = capsys.readouterr().out
        assert f"q_alpha={Q_ALPHA_05[k]}," in out
        want = Q_ALPHA_05[k] * math.sqrt(k * (k + 1) / (6.0 * 25))
        assert float(out.split("CD=")[1].split()[0]) == pytest.approx(want, rel=1e-5)

    def test_default_q_alpha_follows_the_csv_columns(self, tmp_path, capsys):
        path = tmp_path / "acc.csv"
        path.write_text("a,b,c\n0.9,0.8,0.7\n0.7,0.8,0.6\n0.9,0.6,0.8\n")
        assert run_cli(["stats", "--csv", str(path)]) == EXIT_OK
        assert f"(q_alpha={Q_ALPHA_05[3]})" in capsys.readouterr().out

    def test_k_outside_the_table_needs_q_alpha(self, capsys):
        assert run_cli(["stats", "--k", "11", "--cases", "25"]) == EXIT_USAGE
        assert "--q-alpha" in capsys.readouterr().err
        assert run_cli(["stats", "--k", "11", "--cases", "25", "--q-alpha", "2.8"]) == EXIT_OK

    def test_csv_equal_columns_give_zero(self, tmp_path, capsys):
        path = tmp_path / "acc.csv"
        path.write_text("a,b,c\n0.5,0.5,0.5\n0.7,0.7,0.7\n")
        code = run_cli(["stats", "--csv", str(path)])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert float(out.split("F_F=")[1].splitlines()[0]) == 0.0

    def test_csv_with_fixed_rank_override(self, tmp_path, capsys):
        path = tmp_path / "acc.csv"
        path.write_text("a,b,c,d\n0.9,0.8,0,0\n0.7,0.8,0,0\n0.9,0.6,0,0\n")
        code = run_cli(["stats", "--csv", str(path),
                        "--fixed-rank", "c=3.5", "--fixed-rank", "d=3.5"])
        assert code == EXIT_OK
        assert "ranking (best first):" in capsys.readouterr().out

    @pytest.mark.parametrize("spec", ["a", "a=", "a=x"])
    def test_malformed_fixed_rank_names_the_flag_and_form(self, tmp_path, capsys, spec):
        path = tmp_path / "acc.csv"
        path.write_text("a,b,c\n0.9,0.8,0.7\n0.7,0.8,0.6\n")
        assert run_cli(["stats", "--csv", str(path), "--fixed-rank", spec]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert "--fixed-rank" in captured.err and "NAME=RANK" in captured.err
        assert "CD=" not in captured.out

    def test_fixed_rank_with_avg_ranks_is_refused(self, capsys):
        code = run_cli(["stats", "--avg-ranks", "1.5,1.5,3", "--cases", "5",
                        "--fixed-rank", "zzz=9"])
        assert code == EXIT_USAGE
        captured = capsys.readouterr()
        assert "--fixed-rank" in captured.err and "--avg-ranks" in captured.err
        assert "CD=" not in captured.out

    @pytest.mark.parametrize("ranks, message", [("1.5,nan,3", "must be finite"),
                                                ("1,1,1", "come from no ranking")])
    def test_avg_ranks_from_no_ranking_are_refused(self, capsys, ranks, message):
        assert run_cli(["stats", "--avg-ranks", ranks, "--cases", "5"]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert message in captured.err
        assert "chi2=" not in captured.out

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
         (["--csv", "ACC", "--k", "7"], "not allowed with"),
         (["--avg-ranks", "1.5,1.5,3", "--cases", "5", "--k", "9"], "not allowed with"),
         (["--k", "3", "--cases", "5", "--fixed-rank", "a=1"], "--fixed-rank pins a CSV column"),
         (["--avg-ranks", "1.5,1.5,3"], "need --cases"),
         (["--k", "3"], "need --cases"),
         (["--csv", "ACC", "--fixed-rank", "c=4", "--fixed-rank", "d=4"],
          "come from no ranking"),
         (["--csv", "ACC", "--fixed-rank", "c=5"], "must be finite and lie in [1, 4]"),
         (["--avg-ranks", "1,2,x", "--cases", "5"],
          "--avg-ranks '1,2,x': rank 'x' is not a number; give comma-separated ranks"),
         (["--avg-ranks", "1,,3", "--cases", "5"],
          "--avg-ranks '1,,3': rank '' is not a number; give comma-separated ranks")],
        ids=["avg-ranks-sum", "avg-ranks-and-csv", "csv-and-cases", "csv-and-k",
             "avg-ranks-and-k", "k-and-fixed-rank", "avg-ranks-without-cases",
             "k-without-cases", "fixed-ranks-no-ranking-gives", "fixed-rank-out-of-range",
             "avg-ranks-letter", "avg-ranks-empty-token"],
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
        [(["--k", "3", "--cases", "0"], "N >= 1"),
         (["--k", "3", "--cases", "-5"], "N >= 1"),
         (["--k", "3", "--cases", "25", "--q-alpha", "nan"], "q_alpha must be finite"),
         (["--k", "3", "--cases", "25", "--q-alpha", "inf"], "q_alpha must be finite"),
         (["--k", "1", "--cases", "25", "--q-alpha", "2.0"], "k >= 2")],
        ids=["cases-0", "cases-negative", "q-nan", "q-inf", "k-1"],
    )
    def test_bad_cd_inputs_are_usage_errors(self, capsys, flags, message):
        assert run_cli(["stats", *flags]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert message in captured.err
        assert "CD=" not in captured.out


class TestCheck:
    def test_fresh_build_passes(self, capsys):
        code = run_cli(["check", "--n", "256"])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "FAIL" not in out
        assert out.count("PASS") == 13

    def test_injected_off_by_one_fails_named_check(self):
        def broken_pmf(log_p):
            return np.roll(count_log_pmf(log_p), 1)

        result = check_count_pmf(np.random.default_rng(0), cases=20, pmf_fn=broken_pmf)
        assert result.name == "count-pmf-vs-enumeration"
        assert not result.passed

    def test_values_out_of_batch_order_fail_named_check(self):
        def reversed_values(batches, mode):
            return count_loss_values(batches, mode)[::-1]

        result = check_count_values(np.random.default_rng(0), values_fn=reversed_values)
        assert result.name == "count-values-vs-enumeration"
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

    @pytest.mark.parametrize("n", ["0", "-3"])
    def test_stress_size_below_one_is_refused(self, monkeypatch, capsys, n):
        ran = []
        monkeypatch.setattr(cli_module, "run_all_checks", lambda **kw: ran.append(kw) or [])
        assert run_cli(["check", "--n", n]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert "--n must be at least 1" in captured.err
        assert captured.out == "" and ran == []

    def test_check_subcommand_alias(self, capsys):
        code = run_cli(["countloss-check", "--n", "64"])
        assert code == EXIT_OK


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
        ["stats", "--csv", "acc.csv", "--fixed-rank", "d=4"],
        ["stats", "--avg-ranks", "3.56,3.00,3.16,5.36,6.24,6.52,7.08,1.12", "--cases", "25"],
        ["check", "--n", "64"],
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
