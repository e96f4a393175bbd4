"""CLI subcommands: generation, training with manifest replay, the stats
report, the oracle check gate, and exit codes."""

import numpy as np
import pytest

from cleanse.checks import check_count_pmf
from cleanse.cli import EXIT_DIVERGED, EXIT_IO, EXIT_OK, EXIT_USAGE, main
from cleanse.countloss import CountDistribution, count_log_pmf
from cleanse.data import PartialDataset, read_pll_file, write_pll_file


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

    def test_missing_source_is_io_error(self, tmp_path):
        assert run_cli(
            ["generate", "--source", str(tmp_path / "nope.pll"), "-o",
             str(tmp_path / "x.pll")]
        ) == EXIT_IO

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
        assert (out_dir / "model.txt").exists()
        assert (out_dir / "manifest.json").exists()
        assert "final accuracy over last 3 epochs" in capsys.readouterr().out

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

    def test_entropy_mode_column_matches_library(self, tiny_dataset, tmp_path):
        from cleanse.data import read_pll_file as rp
        from cleanse.trainer import TrainConfig, fit, read_metrics_csv

        train, test = tiny_dataset
        out_dir = tmp_path / "ent"
        code = run_cli(["train", "--train", train, "--test", test,
                        "--out-dir", str(out_dir), "--seed", "3",
                        "--count-mode", "entropy", *TINY_TRAIN_ARGS])
        assert code == EXIT_OK
        rows = read_metrics_csv(out_dir / "metrics.csv")
        config = TrainConfig(epochs=3, batch_size=32, hidden=(8,), seed=3,
                             count_mode="entropy", eval_window=3)
        _, history = fit(rp(train), rp(test), config)
        assert [f"{h.count_loss:.9g}" for h in history] == [
            f"{r.count_loss:.9g}" for r in rows
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

    def test_diverging_run_reports_and_exits_nonzero(self, tiny_dataset, tmp_path, capsys):
        train, test = tiny_dataset
        ds = read_pll_file(train)
        huge = tmp_path / "huge.pll"
        write_pll_file(
            PartialDataset(features=ds.features * 1e200, candidates=ds.candidates,
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

    def test_malformed_csv_reports_location(self, tmp_path, capsys):
        path = tmp_path / "acc.csv"
        path.write_text("a,b\n0.9,oops\n")
        assert run_cli(["stats", "--csv", str(path)]) == EXIT_USAGE
        assert ":2:" in capsys.readouterr().err

    def test_missing_inputs_usage_error(self):
        assert run_cli(["stats"]) == EXIT_USAGE


class TestCheck:
    def test_fresh_build_passes(self, capsys):
        code = run_cli(["check", "--n", "256"])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "FAIL" not in out
        assert out.count("PASS") == 7

    def test_injected_off_by_one_fails_named_check(self):
        def broken_pmf(log_p):
            dist = count_log_pmf(log_p)
            return CountDistribution(log_pmf=np.roll(dist.log_pmf, 1))

        result = check_count_pmf(np.random.default_rng(0), cases=20, pmf_fn=broken_pmf)
        assert result.name == "count-pmf-vs-enumeration"
        assert not result.passed

    def test_check_subcommand_alias(self, capsys):
        code = run_cli(["countloss-check", "--n", "64"])
        assert code == EXIT_OK
