"""Command-line front end.

Subcommands:

  generate   write a synthetic partial-label dataset (PLL text format)
  train      run the training loop; emits metrics CSV, checkpoint, manifest
  stats      Friedman / critical-difference report over an accuracy CSV
  check      run the built-in oracle suite (CI gate)

All configuration is flags, progress goes to stderr, data goes to files or
stdout.  Every train run writes a manifest.json that replays the run exactly
(`cleanse train --manifest <path>`).

Exit codes: 0 success, 1 check failure, 2 usage error, 3 I/O error,
4 training diverged (a non-finite loss).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
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
from .stats import RankTable, bonferroni_dunn_cd, friedman, rank_results
from .trainer import (
    CSV_HEADER,
    TrainConfig,
    TrainingDiverged,
    fit,
    format_metrics_row,
    summarize,
)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_DIVERGED = 4


def _log(msg: str) -> None:
    print(msg, file=sys.stderr)


def cmd_generate(args) -> int:
    if args.gaussian:
        features, labels = gaussian_clusters(args.n, args.classes, args.seed)
        m = args.classes
    else:
        source = read_pll_file(args.source)
        if source.hidden_truth is None:
            raise ValueError("source file carries no truth labels to regenerate from")
        features, labels, m = source.features, source.hidden_truth, source.m
    candidates = generate_synthetic(labels, m, args.q, seed=args.seed + 1, mode=args.mode)
    dataset = PartialDataset(
        features=features, candidates=candidates, m=m, hidden_truth=labels
    )

    if args.test_fraction is not None:
        if args.test_out is None:
            raise ValueError("--test-fraction requires --test-out")
        train, test = split(dataset, args.test_fraction, seed=args.seed + 2)
        write_pll_file(train, args.out)
        write_pll_file(test, args.test_out)
        for name, part in (("train", train), ("test", test)):
            s = compute_stats(part)
            _log(
                f"{name}: n={s.n} d={s.d} m={s.m} "
                f"avg_candidates={s.avg_candidates:.4f} clean_rate={s.clean_rate:.4f}"
            )
    else:
        write_pll_file(dataset, args.out)
        s = compute_stats(dataset)
        _log(
            f"wrote {args.out}: n={s.n} d={s.d} m={s.m} "
            f"avg_candidates={s.avg_candidates:.4f} clean_rate={s.clean_rate:.4f}"
        )
    return EXIT_OK


def _config_from_args(args) -> TrainConfig:
    hidden = tuple(int(tok) for tok in args.hidden.split(",") if tok)
    return TrainConfig(
        epochs=args.epochs,
        batch_size=args.batch_size,
        lr=args.lr,
        weight_decay=args.weight_decay,
        k=args.k,
        temperature=args.temperature,
        lam=getattr(args, "lambda"),
        count_mode=args.count_mode,
        knn_scope=args.knn_scope,
        knn_features=args.knn_features,
        vote_mode=args.vote_mode,
        optimizer=args.optimizer,
        hidden=hidden,
        precision=args.precision,
        seed=args.seed,
        eval_window=args.eval_window,
        eval_stride=args.eval_stride,
        threads=args.threads,
    )


def cmd_train(args) -> int:
    if args.manifest:
        with open(args.manifest, "r", encoding="utf-8") as fh:
            loaded = json.load(fh)
        config = TrainConfig(**{**loaded["config"], "hidden": tuple(loaded["config"]["hidden"])})
        train_path, test_path = loaded["train_path"], loaded["test_path"]
        out_dir = args.out_dir if args.out_dir != "run" else loaded["out_dir"]
    else:
        if not args.train or not args.test:
            raise ValueError("--train and --test are required (or use --manifest)")
        config = _config_from_args(args)
        train_path, test_path = args.train, args.test
        out_dir = args.out_dir

    train = read_pll_file(train_path)
    test = read_pll_file(test_path)
    os.makedirs(out_dir, exist_ok=True)

    manifest = {
        "toolkit_version": __version__,
        "seed": config.seed,
        "train_path": train_path,
        "test_path": test_path,
        "out_dir": out_dir,
        "config": dataclasses.asdict(config),
    }
    with open(os.path.join(out_dir, "manifest.json"), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")

    _log(f"training on {train_path} (n={train.n}, m={train.m}), evaluating on {test_path}")
    csv_path = os.path.join(out_dir, "metrics.csv")
    with open(csv_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(CSV_HEADER + "\n")

        def on_epoch(metrics, model):
            # streamed row by row so a concurrent reader can tail the file
            fh.write(format_metrics_row(metrics, args.record_timing) + "\n")
            fh.flush()
            if args.checkpoint_every and (metrics.epoch + 1) % args.checkpoint_every == 0:
                save_mlp(model, os.path.join(out_dir, f"model_epoch{metrics.epoch}.txt"))

        try:
            model, history = fit(train, test, config, on_epoch=on_epoch, progress=not args.quiet)
        except TrainingDiverged as exc:
            _log(f"error: {exc}")
            return EXIT_DIVERGED

    save_mlp(model, os.path.join(out_dir, "model.txt"))
    window = min(config.eval_window, len(history))
    mean, std = summarize(history, window)
    print(f"final accuracy over last {window} epochs: {100*mean:.2f} ± {100*std:.2f}%")
    return EXIT_OK


def _rank_table_from_args(args) -> tuple[RankTable, list[str]]:
    if args.avg_ranks:
        ranks = [float(tok) for tok in args.avg_ranks.split(",")]
        if args.cases is None:
            raise ValueError("--avg-ranks requires --cases")
        table = RankTable(k=len(ranks), n_cases=args.cases, avg_ranks=np.array(ranks))
        return table, [f"alg{i}" for i in range(table.k)]
    with open(args.csv, "r", encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n").split(",")
        rows = []
        for lineno, line in enumerate(fh, start=2):
            toks = line.rstrip("\n").split(",")
            if len(toks) != len(header):
                raise ValueError(f"{args.csv}:{lineno}: expected {len(header)} columns")
            try:
                rows.append([float(t) for t in toks])
            except ValueError:
                bad = next(t for t in toks if not _is_float(t))
                raise ValueError(
                    f"{args.csv}:{lineno}: bad accuracy value {bad!r}"
                ) from None
    fixed = {}
    for spec in args.fixed_rank or []:
        name, _, value = spec.partition("=")
        if name not in header:
            raise ValueError(f"--fixed-rank column {name!r} not in CSV header")
        fixed[header.index(name)] = float(value)
    return rank_results(np.array(rows), fixed_ranks=fixed or None), header


def _is_float(tok: str) -> bool:
    try:
        float(tok)
        return True
    except ValueError:
        return False


def cmd_stats(args) -> int:
    if not args.csv and not args.avg_ranks:
        # critical-difference-only mode: just k, N and q_alpha
        if args.k is None or args.cases is None:
            raise ValueError("provide --csv, --avg-ranks, or both --k and --cases")
        cd = bonferroni_dunn_cd(args.q_alpha, args.k, args.cases)
        print(f"CD={cd:.6g} (q_alpha={args.q_alpha}, k={args.k}, N={args.cases})")
        return EXIT_OK

    table, names = _rank_table_from_args(args)
    chi2, f_f = friedman(table)
    cd = bonferroni_dunn_cd(args.q_alpha, table.k, table.n_cases)
    print(f"k={table.k} N={table.n_cases}")
    print(f"chi2={chi2:.6g}")
    print(f"F_F={f_f:.6g}")
    print(f"CD={cd:.6g} (q_alpha={args.q_alpha})")
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
    results = run_all_checks(seed=args.seed, stress_n=args.n)
    failed = False
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        failed = failed or not r.passed
        print(f"{status} {r.name}: max deviation {r.max_deviation:.3e} (tol {r.tolerance:.0e})")
    return EXIT_CHECK_FAILED if failed else EXIT_OK


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
    g.add_argument("--classes", type=int, default=3)
    g.add_argument("--n", type=int, default=600)
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
    t.add_argument("--out-dir", default="run")
    t.add_argument("--epochs", type=int, default=250)
    t.add_argument("--batch-size", type=int, default=64)
    t.add_argument("--lr", type=float, default=1e-3)
    t.add_argument("--weight-decay", type=float, default=1e-5)
    t.add_argument("--k", type=int, default=10)
    t.add_argument("--temperature", type=float, default=3.0)
    t.add_argument("--lambda", type=float, default=1e-3)
    t.add_argument("--count-mode", choices=["nll", "entropy"], default="nll")
    t.add_argument("--knn-scope", choices=["batch", "global"], default="batch")
    t.add_argument("--knn-features", choices=["raw", "embedding"], default="raw")
    t.add_argument("--vote-mode", choices=["fractional", "multiset"], default="fractional")
    t.add_argument("--optimizer", choices=["adam", "sgd"], default="adam")
    t.add_argument("--hidden", default="300,300", help="comma-separated hidden widths")
    t.add_argument("--precision", choices=["double", "single"], default="double",
                   help="single is faster but excluded from the acceptance contracts")
    t.add_argument("--seed", type=int, default=0)
    t.add_argument("--eval-window", type=int, default=10)
    t.add_argument("--eval-stride", type=int, default=1)
    t.add_argument("--threads", type=int, default=1)
    t.add_argument("--record-timing", action="store_true",
                   help="write real wall times into metrics.csv (breaks byte replay)")
    t.add_argument("--checkpoint-every", type=int, default=0, metavar="E",
                   help="also write model_epoch<N>.txt every E epochs")
    t.add_argument("--quiet", action="store_true")
    t.set_defaults(func=cmd_train)

    s = sub.add_parser("stats", help="Friedman / critical-difference report")
    s.add_argument("--csv", help="accuracy CSV: header = algorithm names, one row per case")
    s.add_argument("--avg-ranks", help="comma-separated average ranks (skip ranking)")
    s.add_argument("--cases", "--n", type=int, default=None, help="case count N")
    s.add_argument("--q-alpha", type=float, default=2.690)
    s.add_argument("--k", type=int, default=None,
                   help="algorithm count (for CD-only mode without a rank table)")
    s.add_argument("--fixed-rank", action="append", metavar="NAME=RANK",
                   help="pin an algorithm at a fixed rank in every case")
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
    except (PllFormatError, OSError, json.JSONDecodeError) as exc:
        _log(f"error: {exc}")
        return EXIT_IO
    except ValueError as exc:
        _log(f"error: {exc}")
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
