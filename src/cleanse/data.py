"""Partial-label dataset model, synthetic generation, file I/O, splitting.

A dataset is a real feature matrix plus an (n, m) boolean candidate mask:
row i marks the candidate labels of instance i.  An instance with exactly
one candidate is *clean* and that label is its ground truth.  Synthetic
data additionally carries the hidden truth for evaluation only -- training
code must work from a truth-stripped view.
"""

from __future__ import annotations

import contextlib
import copy
import hashlib
import itertools
import math
import os
import stat
import tempfile
import zipfile
import zlib
from dataclasses import dataclass

import numpy as np


class PllFormatError(ValueError):
    """Raised on malformed PLL text input; carries the offending line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


@dataclass(frozen=True)
class PartialDataset:
    """Feature matrix, (n, m) bool candidate mask, optional hidden truth.

    hidden_truth exists only for evaluation: for data from the synthetic
    generator it is always a candidate.  Instances are immutable after
    construction; the feature and candidate arrays are marked read-only.
    """

    features: np.ndarray
    candidates: np.ndarray  # (n, m) bool; candidates[i, j]: j is a candidate of i
    m: int
    hidden_truth: np.ndarray | None = None

    def __post_init__(self):
        self._validate(copy=True)

    @classmethod
    def _adopt(cls, features, candidates, m: int, hidden_truth=None) -> "PartialDataset":
        """Dataset over arrays the caller has just built and hands over.

        Validated and made read-only like the public constructor's, but not
        copied: the caller must hold no other reference it writes through.
        """
        ds = object.__new__(cls)
        for name, value in (("features", features), ("candidates", candidates),
                            ("m", m), ("hidden_truth", hidden_truth)):
            object.__setattr__(ds, name, value)
        ds._validate(copy=False)
        return ds

    def _validate(self, copy: bool) -> None:
        feats = np.asarray(self.features, dtype=np.float64)
        if feats.ndim != 2:
            raise ValueError("features must be a 2-D matrix")
        if copy:
            feats = feats.copy()
        feats.flags.writeable = False
        object.__setattr__(self, "features", feats)
        cands = np.asarray(self.candidates)
        if cands.ndim != 2 or cands.dtype != np.bool_:
            raise ValueError("candidates must be a 2-D bool mask")
        if cands.shape != (feats.shape[0], self.m):
            raise ValueError(
                f"candidate mask shape {cands.shape} differs from (n, m) = "
                f"({feats.shape[0]}, {self.m})"
            )
        if not cands.any(axis=1).all():
            raise ValueError("every instance needs at least one candidate")
        if copy:
            cands = cands.copy()
        cands.flags.writeable = False
        object.__setattr__(self, "candidates", cands)
        if self.hidden_truth is not None:
            truth = np.asarray(self.hidden_truth, dtype=np.int64)
            if copy:
                truth = truth.copy()
            if truth.shape != (feats.shape[0],):
                raise ValueError("hidden_truth must have one label per instance")
            if truth.size and (truth.min() < 0 or truth.max() >= self.m):
                raise ValueError("hidden_truth labels outside [0, m)")
            truth.flags.writeable = False
            object.__setattr__(self, "hidden_truth", truth)

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def d(self) -> int:
        return self.features.shape[1]

    def strip_truth(self) -> "PartialDataset":
        """View without hidden truth; what the trainer is allowed to see.

        The view shares this dataset's validated read-only arrays.
        """
        if self.hidden_truth is None:
            return self
        view = copy.copy(self)  # replace() would re-run __post_init__'s copies
        object.__setattr__(view, "hidden_truth", None)
        return view

    def subset(self, indices) -> "PartialDataset":
        idx = np.asarray(indices, dtype=np.int64)
        truth = None if self.hidden_truth is None else self.hidden_truth[idx]
        return PartialDataset._adopt(self.features[idx], self.candidates[idx], self.m, truth)


@dataclass(frozen=True)
class DatasetStats:
    n: int
    d: int
    m: int
    avg_candidates: float
    clean_rate: float


def generate_synthetic(true_labels, m: int, q: float, seed: int) -> np.ndarray:
    """(n, m) bool candidate mask around known true labels.

    Each of the m-1 false labels is included independently with probability
    q, so set sizes follow 1 + Binomial(m-1, q).  The true label is always a
    member.
    """
    if m < 2:
        raise ValueError("class count must be >= 2")
    if not 0.0 <= q <= 1.0:
        raise ValueError("flip probability q must lie in [0, 1]")
    labels = np.asarray(true_labels, dtype=np.int64)
    if labels.size and (labels.min() < 0 or labels.max() >= m):
        raise ValueError("true labels outside [0, m)")
    n = len(labels)
    mask = np.random.default_rng(seed).random((n, m)) < q
    mask[np.arange(n), labels] = True
    return mask


def compute_stats(dataset: PartialDataset) -> DatasetStats:
    """Exact size/candidate statistics of a dataset."""
    if dataset.n == 0:
        raise ValueError("dataset is empty")
    cards = dataset.candidates.sum(axis=1)
    return DatasetStats(
        n=dataset.n,
        d=dataset.d,
        m=dataset.m,
        avg_candidates=int(cards.sum()) / dataset.n,
        clean_rate=int(np.count_nonzero(cards == 1)) / dataset.n,
    )


def split(
    dataset: PartialDataset, test_fraction: float, seed: int
) -> tuple[PartialDataset, PartialDataset]:
    """Disjoint shuffled train/test partition; the test side takes the ceil."""
    if not 0.0 < test_fraction < 1.0:
        raise ValueError("test_fraction must lie strictly between 0 and 1")
    n = dataset.n
    n_test = math.ceil(n * test_fraction)
    if n_test >= n:
        raise ValueError("test_fraction leaves no training data")
    perm = np.random.default_rng(seed).permutation(n)
    return dataset.subset(perm[n_test:]), dataset.subset(perm[:n_test])


def gaussian_clusters(
    n: int, classes: int, seed: int, spread: float = 1.0, radius: float = 5.0
) -> tuple[np.ndarray, np.ndarray]:
    """Separable 2-D benchmark clusters: class centers on a circle.

    Returns (features, labels); labels are drawn uniformly, features are
    isotropic Gaussians of the given spread around each class center.
    """
    if classes < 2:
        raise ValueError("need at least 2 classes")
    if n < 1:
        raise ValueError("need at least 1 instance")
    rng = np.random.default_rng(seed)
    angles = 2.0 * np.pi * np.arange(classes) / classes
    centers = radius * np.stack([np.cos(angles), np.sin(angles)], axis=1)
    labels = rng.integers(0, classes, size=n)
    features = centers[labels] + spread * rng.standard_normal((n, 2))
    return features, labels


# ---------------------------------------------------------------------------
# PLL text format
#
#   #pll n=<n> d=<d> m=<m>
#   <truth|?>;<c1,c2,...,ck>;<f1 f2 ... fd>
#
# Candidates are strictly increasing class indices; features are decimal
# text produced by repr(), so write -> read is an identity on float64.
# ---------------------------------------------------------------------------

# Data lines per parsing block: bounds the text held in memory at once.
# Read time is flat from 16 to 1024 on 784-feature rows.
_READ_ROWS = 256


def write_pll_file(dataset: PartialDataset, path) -> None:
    """Write ``dataset`` as PLL text; what ``read_pll_file`` would refuse
    raises ``ValueError`` before ``path`` is opened."""
    if dataset.d < 1 or dataset.m < 1:
        raise ValueError(f"a PLL file needs d >= 1 and m >= 1, got d={dataset.d}, m={dataset.m}")
    bad = np.argwhere(~np.isfinite(dataset.features))
    if bad.size:
        row, col = bad[0]
        raise ValueError(f"row {row}, column {col}: non-finite feature value "
                         f"{dataset.features[row, col]}")
    truth = dataset.hidden_truth
    if truth is not None:
        outside = np.flatnonzero(~dataset.candidates[np.arange(dataset.n), truth])
        if outside.size:
            row = outside[0]
            raise ValueError(f"row {row}: truth label {truth[row]} is not among its candidates")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"#pll n={dataset.n} d={dataset.d} m={dataset.m}\n")
        for i in range(dataset.n):
            t = "?" if truth is None else str(int(truth[i]))
            cands = ",".join(str(j) for j in np.flatnonzero(dataset.candidates[i]))
            feats = " ".join(repr(float(v)) for v in dataset.features[i])
            fh.write(f"{t};{cands};{feats}\n")


def read_pll_file(path) -> PartialDataset:
    """The dataset a PLL text file holds.

    A regular file's parse is cached in a sidecar beside it (see the parse
    cache below); every read after the first of the same bytes loads the
    sidecar instead of parsing, and returns the same bits.
    """
    return _read_pll(path)[0]


def _read_pll(path) -> tuple[PartialDataset, str | None]:
    """``read_pll_file``'s dataset and the sha256 of the bytes it holds.

    A file that is not regular, such as a pipe, is parsed once, neither
    hashed (that would consume it) nor cached, and its digest is None.  A
    miss hashes the file again after the parse: bytes that changed meanwhile
    fail the read, since its parse then matches no one version of the file.
    """
    mode = os.stat(path).st_mode
    if not stat.S_ISREG(mode):
        return _parse_pll(path), None
    digest = _sha256(path)
    cache = os.fspath(path) + CACHE_SUFFIX
    key = f"{_CACHE_FORMAT}:{digest}"
    dataset = _load_cache(cache, key)
    if dataset is None:
        dataset = _parse_pll(path)
        if _sha256(path) != digest:
            raise OSError(f"{path} changed while it was read")
        _write_cache(cache, key, dataset, stat.S_IMODE(mode))
    return dataset, digest


def _sha256(path) -> str:
    """Hex sha256 of a file's bytes, streamed."""
    with open(path, "rb") as fh:
        return hashlib.file_digest(fh, "sha256").hexdigest()


def _parse_pll(path) -> PartialDataset:
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n")
        n, d, m = _parse_header(header)
        features = np.empty((n, d))
        candidates = np.zeros((n, m), dtype=bool)
        truths: list[int | None] = []
        for start in range(0, n, _READ_ROWS):
            want = min(_READ_ROWS, n - start)
            lines = list(itertools.islice(fh, want))
            stop = start + len(lines)
            if lines:
                rows, block_feats = _parse_block(lines, start + 2, d, m)
                features[start:stop] = block_feats
                for i, (truth, labs, _) in enumerate(rows, start):
                    candidates[i, labs] = True
                    truths.append(truth)
            if len(lines) < want:
                raise PllFormatError(f"expected {n} instances, file ends after {stop}", stop + 2)
        if fh.readline() != "":
            raise PllFormatError("trailing content after declared instances", n + 2)

    have_truth = [t is not None for t in truths]
    if any(have_truth) and not all(have_truth):
        raise PllFormatError("mix of '?' and concrete truth labels")
    hidden = np.array(truths, dtype=np.int64) if n and all(have_truth) else None
    return PartialDataset._adopt(features, candidates, m, hidden)


def _parse_block(lines: list[str], lineno: int, d: int, m: int):
    """(truth, candidates, _) per line and the (rows, d) features of a block.

    ``lineno`` is the file line of ``lines[0]``.  One ``np.loadtxt`` call
    parses the block's feature fields in numpy's C tokenizer, with the same
    correctly rounded string->double conversion as ``float()``.  A block it
    does not take whole -- a malformed line, a blank feature field (which
    loadtxt would skip), a token only ``float()`` accepts such as ``1_0``, a
    wrong count or a non-finite value -- goes through the per-line parser
    instead, which raises the first error in file order or returns
    ``float()``'s values.
    """
    lines = [line.rstrip("\n") for line in lines]
    try:
        rows = [_parse_labels(line, m, lineno + r) for r, line in enumerate(lines)]
        fields = [feat_s for _, _, feat_s in rows]
        if all(f and not f.isspace() for f in fields):
            feats = np.loadtxt(fields, dtype=np.float64, comments=None, ndmin=2)
            if feats.shape == (len(lines), d) and np.isfinite(feats).all():
                return rows, feats
    except ValueError:  # PllFormatError too: the per-line pass reports it in order
        pass
    rows = [_parse_line(line, d, m, lineno + r) for r, line in enumerate(lines)]
    return rows, [feats for _, _, feats in rows]


def _parse_header(header: str) -> tuple[int, int, int]:
    parts = header.split()
    if len(parts) != 4 or parts[0] != "#pll":
        raise PllFormatError("header must be '#pll n=<n> d=<d> m=<m>'", 1)
    vals = {}
    for part in parts[1:]:
        key, _, val = part.partition("=")
        # isdigit alone passes '²' (int() refuses it) and '٣' (int() reads 3)
        if key not in ("n", "d", "m") or not (val.isascii() and val.isdigit()):
            raise PllFormatError(f"bad header field {part!r}", 1)
        vals[key] = int(val)
    if set(vals) != {"n", "d", "m"} or vals["d"] < 1 or vals["m"] < 1:
        raise PllFormatError("header must define n, d >= 1, and m >= 1", 1)
    return vals["n"], vals["d"], vals["m"]


def _parse_labels(line: str, m: int, lineno: int):
    """Truth and candidate list of one data line, plus its raw feature field."""
    parts = line.split(";")
    if len(parts) != 3:
        raise PllFormatError("expected '<truth|?>;<candidates>;<features>'", lineno)
    truth_s, cand_s, feat_s = parts

    if truth_s == "?":
        truth = None
    else:
        try:
            truth = int(truth_s)
        except ValueError:
            raise PllFormatError(f"bad truth field {truth_s!r}", lineno) from None
        if not 0 <= truth < m:
            raise PllFormatError(f"truth label {truth} outside [0, {m})", lineno)

    if cand_s == "":
        raise PllFormatError("empty candidate list", lineno)
    try:
        labs = [int(tok) for tok in cand_s.split(",")]
    except ValueError:
        raise PllFormatError(f"bad candidate list {cand_s!r}", lineno) from None
    for lab in labs:
        if not 0 <= lab < m:
            raise PllFormatError(f"candidate index {lab} outside [0, {m})", lineno)
    if any(b <= a for a, b in zip(labs, labs[1:])):
        raise PllFormatError("candidates must be strictly increasing", lineno)
    if truth is not None and truth not in labs:
        raise PllFormatError(f"truth label {truth} not among candidates", lineno)
    return truth, labs, feat_s


def _parse_line(line: str, d: int, m: int, lineno: int):
    """One data line parsed token by token with ``float()``."""
    truth, labs, feat_s = _parse_labels(line, m, lineno)
    toks = feat_s.split()
    if len(toks) != d:
        raise PllFormatError(f"expected {d} features, got {len(toks)}", lineno)
    try:
        feats = [float(tok) for tok in toks]
    except ValueError:
        raise PllFormatError("bad feature value", lineno) from None
    if not all(math.isfinite(v) for v in feats):
        raise PllFormatError("non-finite feature value", lineno)
    return truth, labs, feats


# ---------------------------------------------------------------------------
# Parse cache
#
# The sidecar "<file>.cache.npz" holds the parse of one exact byte string,
# keyed on its sha256 and _CACHE_FORMAT, as a hash-based .pyc is (PEP 552).
# The text stays the only format a user writes: a sidecar that is stale,
# damaged, or holds arrays the text parser could not have returned is a
# miss, and the text is parsed again.  It is loaded without pickle.
# ---------------------------------------------------------------------------

CACHE_SUFFIX = ".cache.npz"
_CACHE_FORMAT = 1  # bump when the sidecar's layout or the parse's output changes
_CACHE_FIELDS = {"key", "features", "candidates", "m"}  # and hidden_truth, if the file has truth
# what a damaged zip archive or .npy member raises on loading
_CACHE_DAMAGE = (OSError, EOFError, ValueError, zipfile.BadZipFile, zlib.error,
                 NotImplementedError)


def _load_cache(cache: str, key: str) -> PartialDataset | None:
    """The dataset the sidecar ``cache`` holds under ``key``, or None."""
    try:
        # opened here, not by np.load, which leaks its file when the zip is unreadable
        with open(cache, "rb") as fh:
            loaded = np.load(fh, allow_pickle=False)
            if not isinstance(loaded, np.lib.npyio.NpzFile):
                return None
            fields = set(loaded.files)
            if fields - {"hidden_truth"} != _CACHE_FIELDS or loaded["key"].tolist() != key:
                return None
            arrays = {name: loaded[name] for name in fields - {"key"}}
    except _CACHE_DAMAGE:
        return None
    return _from_cache(**arrays)


def _from_cache(features, candidates, m, hidden_truth=None) -> PartialDataset | None:
    """Dataset over a sidecar's arrays, or None unless they pass every check
    the text parser makes: a C-ordered float64 (n, d) matrix with d >= 1 of
    finite features, a 0-d int64 m >= 1, an (n, m) bool mask with a
    candidate in every row and, when present, an (n,) int64 truth with
    n >= 1 and each label among its row's candidates."""
    if not (features.dtype == np.float64 and features.ndim == 2 and features.shape[1] >= 1
            and features.flags.c_contiguous and m.dtype == np.int64 and m.shape == () and m >= 1):
        return None
    # min and max propagate nan and reach any infinity, with no n x d temporary
    if features.size and not (np.isfinite(features.min()) and np.isfinite(features.max())):
        return None
    if hidden_truth is not None and (hidden_truth.dtype != np.int64 or hidden_truth.size == 0):
        return None
    try:
        dataset = PartialDataset._adopt(features, candidates, int(m), hidden_truth)
    except ValueError:  # shapes, an empty row, truth outside [0, m)
        return None
    truth = dataset.hidden_truth
    if truth is not None and not dataset.candidates[np.arange(dataset.n), truth].all():
        return None
    return dataset


def _write_cache(cache: str, key: str, dataset: PartialDataset, mode: int) -> None:
    """Write ``dataset``'s sidecar atomically, readable as the text it caches
    (``mode``): a temp file in the same directory, then ``os.replace``.  A
    write that fails leaves no file and is not an error; the next read
    parses again."""
    arrays = dict(key=np.array(key), features=dataset.features,
                  candidates=dataset.candidates, m=np.int64(dataset.m))
    if dataset.hidden_truth is not None:
        arrays["hidden_truth"] = dataset.hidden_truth
    directory, name = os.path.split(cache)
    try:
        fd, tmp = tempfile.mkstemp(prefix=f".{name}.", suffix=".tmp", dir=directory or ".")
    except OSError:  # a directory this process cannot write
        return
    try:
        with os.fdopen(fd, "wb") as fh:
            os.fchmod(fh.fileno(), mode & 0o666)
            np.savez(fh, **arrays)
        os.replace(tmp, cache)
    except OSError:
        with contextlib.suppress(OSError):
            os.remove(tmp)
