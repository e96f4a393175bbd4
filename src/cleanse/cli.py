"""Command-line front end.

Subcommands:

  generate   write a synthetic partial-label dataset (PLL text format)
  train      run the training loop; writes metrics.csv, model.txt, manifest.json
  stats      Friedman / critical-difference report over an accuracy CSV
  check      run the built-in oracle suite (CI gate)

All configuration is flags, progress goes to stderr, data goes to files or
stdout.  Every train run writes a manifest.json that replays the run exactly
(`cleanse train --manifest <path>`, optionally with another --threads); it
records the sha256 of the input bytes the run read, and a replay on changed
files exits 3.  A finished run also records the sha256 of metrics.csv and
model.txt: a replay whose files differ exits 1, and one without them exits 3.
A replay into the directory it replays leaves the manifest untouched until
it writes its own at the end, so an interrupted one can be run again.

Exit codes: 0 success, 1 check failure, 2 usage error, 3 I/O error,
4 training diverged (a non-finite loss).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import platform
import re
import sys

import numpy as np

from . import __version__
from .checks import run_all_checks
from .data import (
    PartialDataset,
    PllFormatError,
    _read_pll,
    _sha256,
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
    RetiredChoice,
    TrainConfig,
    TrainingDiverged,
    check_datasets,
    fit,
    format_metrics_row,
    smallest_knn_search,
    summarize,
)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_DIVERGED = 4

# `generate --gaussian` sizes; --source takes both from its file
GAUSSIAN_N, GAUSSIAN_CLASSES = 600, 3
# epochs the final accuracy line averages (fewer if the run is shorter)
EVAL_WINDOW = 10


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
    candidates = generate_synthetic(labels, m, args.q, seed=args.seed + 1)
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


# files every successful run writes, in the order a replay compares them
RUN_OUTPUTS = ("metrics.csv", "model.txt")
# every field of a finished run's manifest; output_sha256, written only at its end, first
MANIFEST_FIELDS = ("output_sha256", "platform", "toolkit_version", "config", "train_path",
                   "test_path", "train_sha256", "test_sha256", "out_dir")


def _platform() -> dict:
    """What a run's output bytes depend on besides the toolkit, its inputs
    and its config."""
    return {"python": platform.python_version(), "numpy": np.__version__}


def _write_manifest(out_dir: str, manifest: dict) -> None:
    with open(os.path.join(out_dir, "manifest.json"), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _load_manifest(path: str):
    """(config, train_path, test_path, out_dir, recorded) of the manifest of
    a finished run, with every field ``cmd_train`` writes.  ``recorded`` is
    the manifest itself: ``cmd_train`` compares its input digests with those
    of the bytes it reads, and ``_verify_replay`` its output digests.  A
    setting ``TrainConfig`` refuses as removed (``RetiredChoice``) is
    refused here too."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            loaded = json.load(fh)
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ManifestError(f"{path}: the manifest is not JSON text: {exc}") from None
    if not isinstance(loaded, dict):
        raise ManifestError(f"{path}: the manifest is not a JSON object")
    missing = [name for name in MANIFEST_FIELDS if name not in loaded]
    if missing:
        raise ManifestError(f"{path}: missing field {missing[0]!r}" + (
            ", so the replay cannot be verified: the run predates 0.3.0, or it diverged or "
            "was stopped before it wrote its outputs" if missing[0] == "output_sha256" else ""))
    try:
        config = TrainConfig(**loaded["config"])
    except TypeError as exc:
        raise ManifestError(f"{path}: bad config: {exc}") from None
    except RetiredChoice as exc:
        raise ManifestError(f"{path}: {exc}, so the run cannot be replayed") from None
    for name in ("train_path", "test_path", "out_dir", "toolkit_version"):
        if not isinstance(loaded[name], str):
            raise ManifestError(f"{path}: {name} must be a string, got {loaded[name]!r}")
    for name, required in (("output_sha256", RUN_OUTPUTS), ("platform", tuple(_platform()))):
        value = loaded[name]
        if not (isinstance(value, dict) and all(isinstance(v, str) for v in value.values())
                and set(required) <= value.keys()):
            raise ManifestError(f"{path}: {name} must map names to strings and list "
                                f"{', '.join(required)}, got {value!r}")
    for file in ("train", "test"):
        digest = loaded[f"{file}_sha256"]
        if digest is None:  # what cmd_train records for a pipe
            raise ManifestError(f"{path}: {loaded[f'{file}_path']} was not a regular file, so "
                                "no digest was recorded and the run cannot be replayed")
        if not isinstance(digest, str):
            raise ManifestError(f"{path}: {file}_sha256 must be a string or null, "
                                f"got {digest!r}")
    return config, loaded["train_path"], loaded["test_path"], loaded["out_dir"], loaded


def _verify_replay(path: str, recorded: dict, written: dict) -> int:
    """Compare ``written``, the digests of the ``RUN_OUTPUTS`` a replay
    wrote, with those its manifest (``recorded``, loaded from ``path``)
    lists.  The first that differs fails the replay (exit 1), and the
    message also names every platform field that differs, or, when none
    does, what else the bits depend on that the manifest does not record.
    Any other file a manifest lists (0.4.0 runs could record
    model_epoch<N>.txt) is not compared."""
    digests = recorded["output_sha256"]
    for name in RUN_OUTPUTS:
        if written[name] != digests[name]:
            now = {"toolkit_version": __version__, **_platform()}
            was = {"toolkit_version": recorded["toolkit_version"], **recorded["platform"]}
            changed = [f"{key} {value} (recorded {was[key]})"
                       for key, value in now.items() if was[key] != value]
            _log(f"error: the replay of {path} differs: {name} has sha256 {written[name]}, "
                 f"recorded {digests[name]}"
                 + (f"; platform differs: {', '.join(changed)}" if changed else
                    "; no recorded platform field differs, but the bits also depend on "
                    "the BLAS build, the CPU and the BLAS thread count, which the "
                    "manifest does not record"))
            return EXIT_CHECK_FAILED
    print(f"replay verified: {', '.join(RUN_OUTPUTS)} match the digests in {path}")
    return EXIT_OK


def cmd_train(args) -> int:
    recorded = None
    if args.manifest:
        # threads is the one setting replay guarantees cannot change the bytes
        given = [_config_flag(name) for name in _given_config(args) if name != "threads"]
        given += [flag for flag, value in (("--train", args.train), ("--test", args.test))
                  if value is not None]
        if given:
            raise ValueError(f"--manifest replays the run it recorded; {', '.join(given)} "
                             "cannot be given with it")
        config, train_path, test_path, out_dir, recorded = _load_manifest(args.manifest)
        if args.threads is not None:
            config = dataclasses.replace(config, threads=args.threads)
        out_dir = args.out_dir if args.out_dir is not None else out_dir
    else:
        if not args.train or not args.test:
            raise ValueError("--train and --test are required (or use --manifest)")
        config = _config_from_args(args)
        train_path, test_path = args.train, args.test
        out_dir = args.out_dir if args.out_dir is not None else "run"

    # the digests of the bytes read, so the manifest names what was trained on
    train, train_sha256 = _read_pll(train_path)
    test, test_sha256 = _read_pll(test_path)
    if recorded is not None:
        for file, digest, key in ((train_path, train_sha256, "train_sha256"),
                                  (test_path, test_sha256, "test_sha256")):
            if digest != recorded[key]:
                raise ManifestError(f"{args.manifest}: {file} differs from the file it recorded")
    check_datasets(train, test)
    os.makedirs(out_dir, exist_ok=True)
    # no model.txt of an earlier run, nor a model_epoch<N>.txt that 0.4.0 wrote,
    # stays beside this manifest
    for name in os.listdir(out_dir):
        if re.fullmatch(r"model(_epoch\d+)?\.txt", name):
            os.remove(os.path.join(out_dir, name))

    manifest = {
        "toolkit_version": __version__,
        "platform": _platform(),
        "train_path": train_path,
        "test_path": test_path,
        "train_sha256": train_sha256,
        "test_sha256": test_sha256,
        "out_dir": out_dir,
        "config": dataclasses.asdict(config),
    }
    # a replay in place keeps the manifest it replays until the run is done,
    # so one stopped on the way can be replayed again
    started = os.path.realpath(os.path.join(out_dir, "manifest.json"))
    in_place = recorded is not None and started == os.path.realpath(args.manifest)
    if not in_place:
        _write_manifest(out_dir, manifest)

    _log(f"training on {train_path} (n={train.n}, m={train.m}), evaluating on {test_path}")
    rows = smallest_knn_search(train.n, config)
    if config.k >= rows and not args.quiet:
        _log(f"k={config.k} is clamped: a k-NN search over {rows} rows has {rows - 1} neighbours")
    csv_path = os.path.join(out_dir, "metrics.csv")
    with open(csv_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(CSV_HEADER + "\n")

        def on_epoch(metrics, _model):
            # streamed row by row so a concurrent reader can tail the file
            fh.write(format_metrics_row(metrics) + "\n")
            fh.flush()
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
    manifest["output_sha256"] = {name: _sha256(os.path.join(out_dir, name)) for name in RUN_OUTPUTS}
    window = min(EVAL_WINDOW, len(history))
    mean, std = summarize(history, window)
    print(f"final accuracy over last {window} evaluated epochs: {100*mean:.2f} ± {100*std:.2f}%")
    status = EXIT_OK if recorded is None else _verify_replay(
        args.manifest, recorded, manifest["output_sha256"])
    # an in-place replay that fails keeps the digests it was checked against
    if status == EXIT_OK or not in_place:
        _write_manifest(out_dir, manifest)
    return status


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
        repeated = [name for i, name in enumerate(header) if name in header[:i]]
        if repeated:
            raise ValueError(f"{args.csv}: the header names column {repeated[0]!r} twice")
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
                if not math.isfinite(row[-1]):
                    raise ValueError(f"{args.csv}:{lineno}: accuracy {tok!r} is not finite; "
                                     "accuracies must be finite")
            rows.append(row)
    if not rows:
        raise ValueError(f"{args.csv}: the CSV has no rows below its header")
    return rank_results(np.array(rows)), header


def _q_alpha(args, k: int) -> float:
    """--q-alpha, or the tabulated alpha = 0.05 value for k algorithms."""
    if k < 2:
        raise ValueError(f"the critical difference needs k >= 2 algorithms, got k={k}")
    if args.q_alpha is None and k not in Q_ALPHA_05:
        raise ValueError(f"no tabulated q_alpha for k={k}; pass --q-alpha")
    return Q_ALPHA_05[k] if args.q_alpha is None else args.q_alpha


def cmd_stats(args) -> int:
    # argparse lets exactly one of --csv and --avg-ranks through
    if args.csv is not None and args.cases is not None:
        raise ValueError("--cases cannot be given with --csv: the CSV's rows are the cases")
    if args.csv is None and args.cases is None:
        raise ValueError("--avg-ranks needs --cases, the case count N")
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
    failed = False
    for r in run_all_checks():
        failed = failed or not r.passed
        detail = r.error or f"max deviation {r.max_deviation:.3e} (tol {r.tolerance:.0e})"
        print(f"{'PASS' if r.passed else 'FAIL'} {r.name}: {detail}", flush=True)
    return EXIT_CHECK_FAILED if failed else EXIT_OK


def _widths(text: str) -> tuple[int, ...]:
    """--hidden's comma list; an empty one means no hidden layer."""
    if not text:
        return ()
    widths = []
    for tok in text.split(","):
        try:
            widths.append(int(tok))
        except ValueError:
            raise argparse.ArgumentTypeError(f"{text!r} has an empty width" if not tok
                                             else f"{tok!r} is not an integer width") from None
    return tuple(widths)


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
    t.add_argument("--quiet", action="store_true")
    t.set_defaults(func=cmd_train)

    s = sub.add_parser("stats", help="Friedman / critical-difference report")
    ranks = s.add_mutually_exclusive_group(required=True)
    ranks.add_argument("--csv", help="accuracy CSV: header = algorithm names, one row per case")
    ranks.add_argument("--avg-ranks", help="comma-separated average ranks (skip ranking)")
    s.add_argument("--cases", type=int, default=None, help="case count N (with --avg-ranks)")
    s.add_argument("--q-alpha", type=float, default=None,
                   help="critical value (default: the alpha = 0.05 value for k)")
    s.set_defaults(func=cmd_stats)

    sub.add_parser("check", help="run the oracle suite").set_defaults(func=cmd_check)
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
