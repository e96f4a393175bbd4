"""Command-line front end.

Subcommands:

  generate   write a synthetic partial-label dataset (PLL text format)
  train      run the training loop; emits metrics CSV, checkpoint, manifest
  stats      Friedman / critical-difference report over an accuracy CSV
  check      run the built-in oracle suite (CI gate)

All configuration is flags, progress goes to stderr, data goes to files or
stdout.  Every train run writes a manifest.json that replays the run exactly
(`cleanse train --manifest <path>`); it records the sha256 of the input
files, and a replay on changed files exits 3.

Exit codes: 0 success, 1 check failure, 2 usage error, 3 I/O error,
4 training diverged (a non-finite loss).
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import re
import sys

import numpy as np

from . import __version__
from .checks import run_all_checks
from .data import (
    PartialDataset,
    PllFormatError,
    compute_stats,
    gaussian_clusters,
    generate_synthetic,
    read_pll_file,
    split,
    write_pll_file,
)
from .neural import save_mlp
from .stats import Q_ALPHA_05, RankTable, bonferroni_dunn_cd, friedman, rank_results
from .trainer import (
    CSV_HEADER,
    TrainConfig,
    TrainingDiverged,
    check_datasets,
    fit,
    format_metrics_row,
    summarize,
)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_DIVERGED = 4

# `generate --gaussian` sizes; --source takes both from its file
GAUSSIAN_N, GAUSSIAN_CLASSES = 600, 3


def _log(msg: str) -> None:
    print(msg, file=sys.stderr)


def cmd_generate(args) -> int:
    if args.test_out is not None:
        if args.test_fraction is None:
            raise ValueError("--test-out requires --test-fraction")
        if os.path.realpath(args.test_out) == os.path.realpath(args.out):
            raise ValueError(f"--test-out and -o name the same file {args.out!r}")
    elif args.test_fraction is not None:
        raise ValueError("--test-fraction requires --test-out")
    if args.gaussian:
        n = GAUSSIAN_N if args.n is None else args.n
        m = GAUSSIAN_CLASSES if args.classes is None else args.classes
        features, labels = gaussian_clusters(n, m, args.seed)
    else:
        given = [flag for flag, value in (("--n", args.n), ("--classes", args.classes))
                 if value is not None]
        if given:
            raise ValueError(f"{' and '.join(given)} size the --gaussian clusters; "
                             "--source takes n and m from its file")
        source = read_pll_file(args.source)
        if source.hidden_truth is None:
            raise ValueError("source file carries no truth labels to regenerate from")
        features, labels, m = source.features, source.hidden_truth, source.m
    candidates = generate_synthetic(labels, m, args.q, seed=args.seed + 1, mode=args.mode)
    dataset = PartialDataset(
        features=features, candidates=candidates, m=m, hidden_truth=labels
    )

    if args.test_fraction is not None:
        train, test = split(dataset, args.test_fraction, seed=args.seed + 2)
        write_pll_file(train, args.out)
        write_pll_file(test, args.test_out)
        for name, part in (("train", train), ("test", test)):
            _log(f"{name}: {_describe(part)}")
    else:
        write_pll_file(dataset, args.out)
        _log(f"wrote {args.out}: {_describe(dataset)}")
    return EXIT_OK


def _describe(dataset) -> str:
    s = compute_stats(dataset)
    return (f"n={s.n} d={s.d} m={s.m} "
            f"avg_candidates={s.avg_candidates:.4f} clean_rate={s.clean_rate:.4f}")


def _config_flag(name: str) -> str:
    """The flag of a TrainConfig field: _ becomes -, and lam is --lambda
    (lambda is a keyword)."""
    return "--" + ("lambda" if name == "lam" else name).replace("_", "-")


def _given_config(args) -> dict:
    """The TrainConfig fields whose flags were given (the others are None)."""
    return {f.name: getattr(args, f.name) for f in dataclasses.fields(TrainConfig)
            if getattr(args, f.name) is not None}


def _config_from_args(args) -> TrainConfig:
    return TrainConfig(**_given_config(args))


class ManifestError(Exception):
    """A replay manifest that is malformed or whose input files changed."""


def _sha256(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.file_digest(fh, "sha256").hexdigest()


def _load_manifest(path: str):
    """(config, train_path, test_path, out_dir) of a manifest whose inputs
    still have the recorded sha256."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            loaded = json.load(fh)
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ManifestError(f"{path}: the manifest is not JSON text: {exc}") from None
    if not isinstance(loaded, dict):
        raise ManifestError(f"{path}: the manifest is not a JSON object")
    try:
        config = TrainConfig(**loaded["config"])
        paths = loaded["train_path"], loaded["test_path"]
        recorded = loaded["train_sha256"], loaded["test_sha256"]
        out_dir = loaded["out_dir"]
    except KeyError as exc:
        raise ManifestError(f"{path}: missing field {exc.args[0]!r}") from None
    except TypeError as exc:
        raise ManifestError(f"{path}: bad config: {exc}") from None
    for name in ("train_path", "test_path", "out_dir"):
        if not isinstance(loaded[name], str):
            raise ManifestError(f"{path}: {name} must be a string, got {loaded[name]!r}")
    for file, digest in zip(paths, recorded):
        if _sha256(file) != digest:
            raise ManifestError(f"{path}: {file} differs from the file it recorded")
    return config, *paths, out_dir


def cmd_train(args) -> int:
    if args.checkpoint_every < 0:
        raise ValueError("--checkpoint-every must be >= 0 (0 disables checkpoints)")
    if args.manifest:
        given = [_config_flag(name) for name in _given_config(args)]
        given += [flag for flag, value in (("--train", args.train), ("--test", args.test))
                  if value is not None]
        if given:
            raise ValueError(f"--manifest replays the run it recorded; {', '.join(given)} "
                             "cannot be given with it")
        config, train_path, test_path, out_dir = _load_manifest(args.manifest)
        out_dir = args.out_dir if args.out_dir is not None else out_dir
    else:
        if not args.train or not args.test:
            raise ValueError("--train and --test are required (or use --manifest)")
        config = _config_from_args(args)
        train_path, test_path = args.train, args.test
        out_dir = args.out_dir if args.out_dir is not None else "run"

    train = read_pll_file(train_path)
    test = read_pll_file(test_path)
    check_datasets(train, test)
    os.makedirs(out_dir, exist_ok=True)
    # no model.txt or model_epoch<N>.txt of an earlier run stays beside this manifest
    for name in os.listdir(out_dir):
        if re.fullmatch(r"model(_epoch\d+)?\.txt", name):
            os.remove(os.path.join(out_dir, name))

    manifest = {
        "toolkit_version": __version__,
        "train_path": train_path,
        "test_path": test_path,
        "train_sha256": _sha256(train_path),
        "test_sha256": _sha256(test_path),
        "out_dir": out_dir,
        "config": dataclasses.asdict(config),
    }
    with open(os.path.join(out_dir, "manifest.json"), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")

    _log(f"training on {train_path} (n={train.n}, m={train.m}), evaluating on {test_path}")
    # epoch_batches merges the remainder, so no batch has fewer rows than this
    rows = train.n if config.knn_scope == "global" else min(config.batch_size, train.n)
    if config.k >= rows and not args.quiet:
        _log(f"k={config.k} is clamped: a k-NN search over {rows} rows has {rows - 1} neighbours")
    csv_path = os.path.join(out_dir, "metrics.csv")
    with open(csv_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(CSV_HEADER + "\n")

        def on_epoch(metrics, model):
            # streamed row by row so a concurrent reader can tail the file
            fh.write(format_metrics_row(metrics) + "\n")
            fh.flush()
            if args.checkpoint_every and (metrics.epoch + 1) % args.checkpoint_every == 0:
                save_mlp(model, os.path.join(out_dir, f"model_epoch{metrics.epoch}.txt"))
            if not args.quiet:
                _log(f"epoch {metrics.epoch}: reweight={metrics.reweight_loss:.6f} "
                     f"count={metrics.count_loss:.6f} total={metrics.total_loss:.6f} "
                     f"acc={metrics.test_accuracy:.4f} ({metrics.seconds:.2f}s)")

        try:
            model, history = fit(train, test, config, on_epoch=on_epoch)
        except TrainingDiverged as exc:
            _log(f"error: {exc}")
            return EXIT_DIVERGED

    save_mlp(model, os.path.join(out_dir, "model.txt"))
    window = min(config.eval_window, len(history))
    mean, std = summarize(history, window)
    print(f"final accuracy over last {window} evaluated epochs: {100*mean:.2f} ± {100*std:.2f}%")
    return EXIT_OK


def _rank_table_from_args(args) -> tuple[RankTable, list[str]]:
    if args.avg_ranks is not None:
        ranks = []
        for tok in args.avg_ranks.split(","):
            try:
                ranks.append(float(tok))
            except ValueError:
                raise ValueError(f"--avg-ranks {args.avg_ranks!r}: rank {tok!r} is not a number; "
                                 "give comma-separated ranks such as 1.5,1.5,3") from None
        table = RankTable(k=len(ranks), n_cases=args.cases, avg_ranks=np.array(ranks))
        return table, [f"alg{i}" for i in range(table.k)]
    with open(args.csv, "r", encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n").split(",")
        rows = []
        for lineno, line in enumerate(fh, start=2):
            toks = line.rstrip("\n").split(",")
            if len(toks) != len(header):
                raise ValueError(f"{args.csv}:{lineno}: expected {len(header)} columns")
            row = []
            for tok in toks:
                try:
                    row.append(float(tok))
                except ValueError:
                    raise ValueError(f"{args.csv}:{lineno}: bad accuracy value {tok!r}") from None
            rows.append(row)
    fixed = {}
    for spec in args.fixed_rank or []:
        name, _, value = spec.partition("=")  # no "=" leaves value empty
        try:
            rank = float(value)
        except ValueError:
            raise ValueError(f"--fixed-rank {spec!r} is not of the form NAME=RANK "
                             "with a numeric RANK") from None
        if name not in header:
            raise ValueError(f"--fixed-rank column {name!r} not in CSV header")
        fixed[header.index(name)] = rank
    return rank_results(np.array(rows), fixed_ranks=fixed or None), header


def _q_alpha(args, k: int) -> float:
    """--q-alpha, or the tabulated alpha = 0.05 value for k algorithms."""
    if args.q_alpha is None and k not in Q_ALPHA_05:
        raise ValueError(f"no tabulated q_alpha for k={k}; pass --q-alpha")
    return Q_ALPHA_05[k] if args.q_alpha is None else args.q_alpha


def cmd_stats(args) -> int:
    # argparse lets exactly one of --csv, --avg-ranks and --k through
    if args.csv is not None and args.cases is not None:
        raise ValueError("--cases cannot be given with --csv: the CSV's rows are the cases")
    if args.csv is None and args.cases is None:
        raise ValueError("--avg-ranks and --k need --cases, the case count N")
    if args.csv is None and args.fixed_rank:
        raise ValueError("--fixed-rank pins a CSV column, so it needs --csv "
                         "and cannot be used with --avg-ranks or --k")
    if args.k is not None:
        # critical-difference-only mode: just k, N and q_alpha
        q_alpha = _q_alpha(args, args.k)
        cd = bonferroni_dunn_cd(q_alpha, args.k, args.cases)
        print(f"CD={cd:.6g} (q_alpha={q_alpha}, k={args.k}, N={args.cases})")
        return EXIT_OK

    table, names = _rank_table_from_args(args)
    q_alpha = _q_alpha(args, table.k)
    chi2, f_f = friedman(table)
    cd = bonferroni_dunn_cd(q_alpha, table.k, table.n_cases)
    print(f"k={table.k} N={table.n_cases}")
    print(f"chi2={chi2:.6g}")
    print(f"F_F={f_f:.6g}")
    print(f"CD={cd:.6g} (q_alpha={q_alpha})")
    order = np.argsort(table.avg_ranks, kind="stable")
    best = table.avg_ranks[order[0]]
    print("ranking (best first):")
    for pos in order:
        gap = table.avg_ranks[pos] - best
        marker = " " if gap <= cd else "*"
        print(f"  {marker} {names[pos]}: {table.avg_ranks[pos]:.4g}")
    print("(* = significantly behind the best: rank gap exceeds CD)")
    return EXIT_OK


def cmd_check(args) -> int:
    if args.n < 1:
        raise ValueError(f"--n must be at least 1, got {args.n}")
    results = run_all_checks(seed=args.seed, stress_n=args.n)
    failed = False
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        failed = failed or not r.passed
        print(f"{status} {r.name}: max deviation {r.max_deviation:.3e} (tol {r.tolerance:.0e})")
    return EXIT_CHECK_FAILED if failed else EXIT_OK


def _widths(text: str) -> tuple[int, ...]:
    """--hidden's comma list; an empty one means no hidden layer."""
    return tuple(int(tok) for tok in text.split(",") if tok)


def _add_config_flags(parser) -> None:
    """One flag per TrainConfig field, with its type and choices.  A flag not
    given stays None, so TrainConfig alone holds the defaults."""
    for f in dataclasses.fields(TrainConfig):
        flag = _config_flag(f.name)
        choices = f.metadata.get("choices")
        parser.add_argument(
            flag,
            dest=f.name,
            type=_widths if f.name == "hidden" else type(f.default),
            default=None,
            choices=choices,
            metavar=None if choices else flag[2:].replace("-", "_").upper(),
            help="comma-separated hidden widths" if f.name == "hidden" else None,
        )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cleanse",
        description="partial-label learning toolkit (clean-sample reweighting + count loss)",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="write a synthetic PLL dataset")
    src = g.add_mutually_exclusive_group(required=True)
    src.add_argument("--gaussian", action="store_true", help="built-in 2-D Gaussian clusters")
    src.add_argument("--source", help="existing PLL file with truth labels to re-candidate")
    g.add_argument("--classes", type=int, default=None,
                   help=f"class count of --gaussian (default {GAUSSIAN_CLASSES})")
    g.add_argument("--n", type=int, default=None,
                   help=f"instance count of --gaussian (default {GAUSSIAN_N})")
    g.add_argument("--q", type=float, default=0.5, help="false-label flip probability")
    g.add_argument("--mode", choices=["binomial", "uniform-size"], default="binomial")
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("-o", "--out", required=True)
    g.add_argument("--test-fraction", type=float, default=None)
    g.add_argument("--test-out", default=None)
    g.set_defaults(func=cmd_generate)

    t = sub.add_parser("train", help="train a model on PLL files")
    t.add_argument("--manifest", help="replay a previous run from its manifest")
    t.add_argument("--train", help="training PLL file")
    t.add_argument("--test", help="test PLL file (truth required)")
    t.add_argument("--out-dir", default=None,
                   help="output directory (default: run, or the manifest's on replay)")
    _add_config_flags(t)
    t.add_argument("--checkpoint-every", type=int, default=0, metavar="E",
                   help="also write model_epoch<N>.txt every E epochs")
    t.add_argument("--quiet", action="store_true")
    t.set_defaults(func=cmd_train)

    s = sub.add_parser("stats", help="Friedman / critical-difference report")
    ranks = s.add_mutually_exclusive_group(required=True)
    ranks.add_argument("--csv", help="accuracy CSV: header = algorithm names, one row per case")
    ranks.add_argument("--avg-ranks", help="comma-separated average ranks (skip ranking)")
    ranks.add_argument("--k", type=int, default=None,
                       help="algorithm count (critical difference only, no rank table)")
    s.add_argument("--cases", "--n", type=int, default=None,
                   help="case count N (with --avg-ranks or --k)")
    s.add_argument("--q-alpha", type=float, default=None,
                   help="critical value (default: the alpha = 0.05 value for k)")
    s.add_argument("--fixed-rank", action="append", metavar="NAME=RANK",
                   help="pin a CSV column at a fixed rank in every case (with --csv)")
    s.set_defaults(func=cmd_stats)

    c = sub.add_parser("check", aliases=["countloss-check"], help="run the oracle suite")
    c.add_argument("--seed", type=int, default=0)
    c.add_argument("--n", type=int, default=1024, help="underflow stress size")
    c.set_defaults(func=cmd_check)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (PllFormatError, ManifestError, OSError) as exc:
        _log(f"error: {exc}")
        return EXIT_IO
    except ValueError as exc:
        _log(f"error: {exc}")
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
