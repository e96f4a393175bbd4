"""Self-contained oracle checks: brute-force enumeration, brute-force k-NN,
case-by-case enhanced labels in exact fractions, finite differences and
bitwise file round trips, parsed and through the parse cache, against the
fast paths.
The CLI `check` subcommand runs these in CI; the test suite reuses the same
oracles.
"""

from __future__ import annotations

import itertools
import math
import tempfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .countloss import (
    MIN_LOG_PROB,
    batch_intervals,
    count_log_pmf,
    count_loss,
    count_loss_values,
    interval_log_prob,
    logsumexp,
)
from .data import (
    _READ_ROWS,
    CACHE_SUFFIX,
    PartialDataset,
    generate_synthetic,
    read_pll_file,
    write_pll_file,
)
from .neural import Mlp, backward, forward, reweighted_ce
from .reweight import NO_ENHANCEMENT, build_weight_matrix, enhanced_labels, knn_search
from .trainer import batch_objective


@dataclass(frozen=True)
class CheckResult:
    name: str
    max_deviation: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.max_deviation <= self.tolerance


def pmf_by_enumeration(p: np.ndarray) -> np.ndarray:
    """Poisson-binomial pmf by summing all 2^n outcomes; n <= ~16 only."""
    p = np.asarray(p, dtype=np.float64)
    n = len(p)
    pmf = np.zeros(n + 1)
    for bits in itertools.product((0, 1), repeat=n):
        prob = 1.0
        for b, pi in zip(bits, p):
            prob *= pi if b else (1.0 - pi)
        pmf[sum(bits)] += prob
    return pmf


def relative_error(a: float, b: float) -> float:
    return abs(a - b) / max(1.0, abs(a), abs(b))


def check_count_pmf(rng: np.random.Generator, cases: int = 200, max_n: int = 12,
                    pmf_fn=count_log_pmf) -> CheckResult:
    """DP pmf vs exhaustive enumeration, random probability vectors."""
    worst = 0.0
    for _ in range(cases):
        n = int(rng.integers(1, max_n + 1))
        p = rng.random(n)
        dev = np.max(np.abs(np.exp(pmf_fn(np.log(p))) - pmf_by_enumeration(p)))
        worst = max(worst, float(dev))
    return CheckResult("count-pmf-vs-enumeration", worst, 1e-10)


def check_interval_probs(rng: np.random.Generator, cases: int = 200,
                         max_n: int = 12) -> CheckResult:
    """Interval probabilities vs direct sums over the enumerated pmf."""
    worst = 0.0
    for _ in range(cases):
        n = int(rng.integers(1, max_n + 1))
        p = rng.random(n)
        lo = int(rng.integers(0, n + 1))
        hi = int(rng.integers(lo, n + 1))
        got = math.exp(interval_log_prob(count_log_pmf(np.log(p)), lo, hi))
        want = float(np.sum(pmf_by_enumeration(p)[lo : hi + 1]))
        worst = max(worst, abs(got - want))
    return CheckResult("interval-prob-vs-enumeration", worst, 1e-10)


def check_count_loss_grad(rng: np.random.Generator, cases: int = 50, max_n: int = 8,
                          h: float = 1e-6) -> CheckResult:
    """Analytic count-loss gradient vs central finite differences."""
    worst = 0.0
    for c in range(cases):
        n = int(rng.integers(2, max_n + 1))
        m = int(rng.integers(2, 5))
        z = rng.standard_normal((n, m))
        probs = np.exp(z) / np.exp(z).sum(axis=1, keepdims=True)
        lo, hi = np.empty(m, dtype=np.int64), np.empty(m, dtype=np.int64)
        for j in range(m):
            lo[j] = rng.integers(0, n)
            hi[j] = rng.integers(lo[j], n + 1)
        mode = "nll" if c % 2 == 0 else "entropy"
        res = count_loss(probs, lo, hi, mode)
        for i in range(n):
            for j in range(m):
                plus = probs.copy()
                plus[i, j] += h
                minus = probs.copy()
                minus[i, j] -= h
                fd = (count_loss(plus, lo, hi, mode).loss
                      - count_loss(minus, lo, hi, mode).loss) / (2.0 * h)
                worst = max(worst, relative_error(res.grad[i, j], fd))
    return CheckResult("count-loss-grad-vs-fd", worst, 1e-6)


def _clipped_interval_prob(log_pmf: np.ndarray, lo: int, hi: int) -> float:
    """P(lo <= count <= hi) with the interval clipped to the support 0..n."""
    lo, hi = max(lo, 0), min(hi, len(log_pmf) - 1)
    if lo > hi:
        return 0.0
    return math.exp(interval_log_prob(log_pmf, lo, hi))


def check_count_loss_grad_at_scale(rng: np.random.Generator, n: int = 1000, m: int = 3,
                                   rows: int = 16) -> CheckResult:
    """Count-loss gradient vs the leave-one-out identity at batch size n.

    For q = P(S in [lo, hi]) and S_{-i} the count without item i,

        dq/dp_i = P(S_{-i} in [lo-1, hi-1]) - P(S_{-i} in [lo, hi]),

    evaluated with ``count_log_pmf`` on the other n - 1 items, independently
    of the prefix/suffix lattice ``count_loss`` reads the same identity off;
    the intervals touch lo = 0 and hi = n.
    """
    z = rng.standard_normal((n, m))
    probs = np.exp(z) / np.exp(z).sum(axis=1, keepdims=True)
    mean = probs.sum(axis=0)
    sd = np.sqrt(np.sum(probs * (1.0 - probs), axis=0))
    bounds = [(int(mean[j] - sd[j]), int(mean[j] + sd[j]) + 1) for j in range(m)]
    bounds[0] = (0, int(mean[0]))
    bounds[-1] = (int(mean[-1] - 2.0 * sd[-1]), n)
    lo, hi = np.array(bounds).T
    res = count_loss(probs, lo, hi, "nll")

    sample = np.concatenate(([0, n - 1], 1 + rng.choice(n - 2, rows - 2, replace=False)))
    log_probs = np.log(probs)
    worst = 0.0
    for j, (lo, hi) in enumerate(bounds):
        q = _clipped_interval_prob(count_log_pmf(log_probs[:, j]), lo, hi)
        for i in sample:
            rest = count_log_pmf(np.delete(log_probs[:, j], i))
            dq = _clipped_interval_prob(rest, lo - 1, hi - 1) - _clipped_interval_prob(rest, lo, hi)
            worst = max(worst, relative_error(res.grad[i, j], -dq / q))
    return CheckResult(f"count-loss-grad-vs-leave-one-out-n{n}", worst, 1e-9)


def check_count_loss_log_fallback(rng: np.random.Generator, n: int = 1024,
                                  m: int = 2) -> CheckResult:
    """A batch far in the tail runs in log space and matches its closed form.

    Every p_ij is near 0.45 and every interval is [0, 0], so
    q_j = prod_i (1 - p_ij) is about e^-612: below ``MIN_PROB_SPACE_LOG``,
    above the nll clamp.  In closed form the nll loss is
    -sum_ij log1p(-p_ij) and d loss / d p_ij = 1 / (1 - p_ij).  The result
    must say it fell back to log space, and the batch, stacked in
    ``count_loss_values`` between two ordinary batches of the same n, must
    keep the bits it has alone; a miss counts as an infinite deviation.
    """
    name = f"count-loss-log-fallback-n{n}"
    probs = rng.uniform(0.44, 0.46, size=(n, m))
    zeros = np.zeros(m, dtype=np.int64)
    res = count_loss(probs, zeros, zeros, "nll")
    if not res.log_space or res.saturated:
        return CheckResult(name, math.inf, 1e-10)
    worst = relative_error(res.loss, -float(np.sum(np.log1p(-probs))))
    worst = max(worst, max(map(relative_error, res.grad.flat, (1.0 / (1.0 - probs)).flat)))

    batches = []
    for _ in range(2):
        z = rng.standard_normal((n, m))
        ordinary = np.exp(z) / np.exp(z).sum(axis=1, keepdims=True)
        mean = ordinary.sum(axis=0)
        sd = np.sqrt(np.sum(ordinary * (1.0 - ordinary), axis=0))
        batches.append((ordinary, (mean - 2.0 * sd).astype(np.int64),
                        (mean + 2.0 * sd).astype(np.int64)))
    batches.insert(1, (probs, zeros, zeros))
    stacked = count_loss_values(batches, "nll")
    alone = [count_loss_values([batch], "nll")[0] for batch in batches]
    if stacked != alone or stacked[1] != res.loss:
        return CheckResult(name, math.inf, 1e-10)
    return CheckResult(name, worst, 1e-10)


def total_objective(model: Mlp, X, weights, lo, hi, lam: float, mode: str) -> float:
    """Combined loss used by the trainer step, as a pure function of the model."""
    _, probs = forward(model, X)
    rl, _, _ = reweighted_ce(probs, weights)
    return rl + lam * count_loss(probs, lo, hi, mode).loss


def check_trainer_grad(rng: np.random.Generator, cases: int = 50, h: float = 1e-5) -> CheckResult:
    """The trainer's own parameter gradients (``batch_objective``, then
    ``backward``) of the combined objective vs FD of ``total_objective``.

    The model is float64, where central differences resolve 1e-4; ``fit``
    runs the same chain in float32, which the test suite compares with
    float64 on equal inputs."""
    worst = 0.0
    for c in range(cases):
        n = int(rng.integers(3, 7))
        m = int(rng.integers(2, 4))
        d = int(rng.integers(2, 4))
        hidden = (int(rng.integers(3, 6)),)
        model = Mlp.init((d, *hidden, m), rng)
        X = rng.standard_normal((n, d))
        truths = rng.integers(0, m, size=n)
        candidates = generate_synthetic(truths, m, 0.5, seed=int(rng.integers(1 << 30)))
        enhanced = []
        for row in candidates:
            labs = np.flatnonzero(row)
            enhanced.append(int(labs[rng.integers(0, labs.size)]))
        weights = build_weight_matrix(candidates, enhanced, temperature=2.0)
        lo, hi = batch_intervals(candidates)
        lam = 0.7
        mode = "nll" if c % 2 == 0 else "entropy"

        hidden, probs = forward(model, X)
        _, _, grad_logits = batch_objective(probs, weights, lo, hi, lam, mode)
        grads = backward(model, X, hidden, grad_logits)

        for p, g in zip(model.parameters(), grads):
            flat = p.reshape(-1)
            gflat = g.reshape(-1)
            for idx in range(flat.size):
                orig = flat[idx]
                flat[idx] = orig + h
                up = total_objective(model, X, weights, lo, hi, lam, mode)
                flat[idx] = orig - h
                down = total_objective(model, X, weights, lo, hi, lam, mode)
                flat[idx] = orig
                worst = max(worst, relative_error(gflat[idx], (up - down) / (2.0 * h)))
    return CheckResult("trainer-grad-vs-fd", worst, 1e-4)


def brute_force_knn(X, k: int, rows=None) -> list[tuple[np.ndarray, np.ndarray]]:
    """Independent k-NN oracle: all-pairs loops, sort by (distance, index).

    Returns (indices, distances) for each query in ``rows`` (default: every
    row), the query itself excluded and k clamped to p - 1.
    """
    X = np.asarray(X, dtype=np.float64)
    p = X.shape[0]
    out = []
    for i in range(p) if rows is None else rows:
        pairs = []
        for j in range(p):
            if j == i:
                continue
            diff = X[i] - X[j]
            pairs.append((float(np.sum(diff * diff)), j))
        pairs.sort()
        chosen = pairs[: min(k, p - 1)]
        out.append(
            (
                np.array([j for _, j in chosen]),
                np.sqrt(np.array([d2 for d2, _ in chosen])),
            )
        )
    return out


def check_knn_brute_force(rng: np.random.Generator, p: int = 2000, d: int = 4, k: int = 10,
                          queries: int = 50) -> CheckResult:
    """knn_search vs brute_force_knn on queries sampled from every row block.

    2000 points make four of knn_search's query blocks.  A half-unit grid
    offset by 1e4 gives duplicates and distance ties whose GEMM estimates
    differ in the last bits, so a band without its roundoff margin drops
    tied neighbours.  The tolerance is 0: a wrong index counts as an
    infinite deviation.
    """
    X = np.round(2.0 * rng.standard_normal((p, d))) / 2.0 + 1e4
    got = knn_search(X, k)
    rows = range(0, p, p // queries)
    worst = 0.0
    for r, (idx, dist) in zip(rows, brute_force_knn(X, k, rows)):
        if not np.array_equal(got[r].indices, idx):
            return CheckResult("knn-vs-brute-force", math.inf, 0.0)
        worst = max(worst, float(np.max(np.abs(got[r].distances - dist))))
    return CheckResult("knn-vs-brute-force", worst, 0.0)


def oracle_vote(candidates, i: int, indices, distances, vote_mode: str) -> int:
    """Independent enhanced label of row i by direct case analysis.

    ``candidates`` is the (n, m) mask, ``indices`` and ``distances`` row i's
    neighbours, nearest first.  Votes are exact ``Fraction`` sums, and a
    label's tie distance is the least distance among its voters.
    """
    # imported here: every cleanse command imports this module, and
    # fractions loads decimal, about 0.4 MiB of RSS
    from fractions import Fraction

    def labels(row):
        return [j for j in range(candidates.shape[1]) if candidates[row, j]]

    ci = labels(i)
    if len(ci) == 1:
        return ci[0]
    for idx in indices:
        cn = labels(int(idx))
        if len(cn) == 1 and cn[0] in ci:
            return cn[0]
    totals = {}
    for lab in ci:
        total = Fraction(0)
        best_dist = None
        for idx, dist in zip(indices, distances):
            cs = labels(int(idx))
            if lab in cs:
                total += Fraction(1, len(cs)) if vote_mode == "fractional" else 1
                if best_dist is None or dist < best_dist:
                    best_dist = float(dist)
        if total > 0:
            totals[lab] = (total, best_dist)
    if not totals:
        return NO_ENHANCEMENT
    return min(totals, key=lambda lab: (-totals[lab][0], totals[lab][1], lab))


# neighbour set sizes whose lcm, about 3.3e19, is past int64
_PRIMES_TO_53 = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53)


def check_enhanced_labels(rng: np.random.Generator, cases: int = 20) -> CheckResult:
    """enhanced_labels vs oracle_vote, row for row, in both vote modes.

    Each case is a batch of grid points, so many neighbour distances tie,
    with masks that mix clean rows and sets of up to m = 53 labels, at k up
    to 20 (clamped when the batch is smaller).  One more batch, with a
    neighbour of each prime set size 2..53, votes in Python ints.  Every
    batch runs in both modes; the deviation is the number of rows that
    differ.
    """
    batches = []
    for _ in range(cases):
        m = int(rng.integers(2, 54))
        n = int(rng.integers(2, 41))
        sizes = np.where(rng.random(n) < 0.3, 1, rng.integers(1, m + 1, size=n))
        batches.append((np.round(rng.standard_normal((n, 2))), sizes, m, int(rng.integers(1, 21))))
    sizes = np.array((5, *_PRIMES_TO_53))
    batches.append((rng.standard_normal((len(sizes), 2)), sizes, 53, len(sizes) - 1))
    wrong = 0
    for feats, sizes, m, k in batches:
        cands = np.zeros((len(sizes), m), dtype=bool)
        for row, size in zip(cands, sizes):
            row[rng.permutation(m)[:size]] = True
        nb = knn_search(feats, k)
        for mode in ("fractional", "multiset"):
            got = enhanced_labels(cands, cands[nb.indices], nb.distances, mode)
            for i, label in enumerate(got.tolist()):
                wrong += label != oracle_vote(cands, i, nb.indices[i], nb.distances[i], mode)
    return CheckResult("enhanced-labels", float(wrong), 0.0)


def check_underflow_stress(n: int = 1024) -> CheckResult:
    """Large-n pmf stays finite and normalized where direct space underflows."""
    p = np.empty(n)
    p[0::3] = 1e-12
    p[1::3] = 0.5
    p[2::3] = 1.0 - 1e-12
    log_pmf = count_log_pmf(np.log(p))
    if not np.all(np.isfinite(log_pmf)):
        return CheckResult(f"underflow-stress-n{n}", math.inf, 1e-9)
    dev = abs(math.exp(logsumexp(log_pmf)) - 1.0)
    return CheckResult(f"underflow-stress-n{n}", dev, 1e-9)


def check_logsumexp_identity() -> CheckResult:
    dev = abs(logsumexp([-1000.0, -1000.0]) - (-1000.0 + math.log(2.0)))
    return CheckResult("logsumexp-shift-identity", dev, 1e-12)


def _roundtrip_dataset(rng: np.random.Generator, n: int, d: int, m: int) -> PartialDataset:
    """The first half of the rows are uniform 64-bit patterns (non-finite
    ones replaced by -0.0), so subnormals and every exponent occur, and its
    first eight features are the extremes.  The second half are standard
    normals: whole blocks of values that a parser of narrower range still
    accepts."""
    feats = rng.integers(0, 1 << 64, size=(n, d), dtype=np.uint64).view(np.float64)
    feats[~np.isfinite(feats)] = -0.0
    fi = np.finfo(np.float64)
    feats.flat[:8] = [fi.max, -fi.max, fi.smallest_subnormal, -fi.smallest_subnormal,
                      fi.tiny, -0.0, 0.0, 1.0]
    feats[n // 2 :] = rng.standard_normal((n - n // 2, d))
    truths = rng.integers(0, m, size=n)
    cands = generate_synthetic(truths, m, 0.5, seed=int(rng.integers(1 << 30)))
    return PartialDataset(feats, cands, m, hidden_truth=truths)


def _bit_deviation(back: PartialDataset, ds: PartialDataset) -> int:
    """Features whose bits differ plus rows whose candidates or truth differ."""
    dev = np.count_nonzero(back.features.view(np.uint64) != ds.features.view(np.uint64))
    dev += np.count_nonzero((back.candidates != ds.candidates).any(axis=1))
    return int(dev + np.count_nonzero(back.hidden_truth != ds.hidden_truth))


def check_pll_roundtrip(rng: np.random.Generator, n: int = 4 * _READ_ROWS, d: int = 8,
                        m: int = 5) -> CheckResult:
    """write_pll_file -> read_pll_file, bitwise, over several parsing blocks
    of ``_roundtrip_dataset``'s extreme and ordinary values."""
    ds = _roundtrip_dataset(rng, n, d, m)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "roundtrip.pll"
        write_pll_file(ds, path)
        back = read_pll_file(path)
    return CheckResult("pll-roundtrip", float(_bit_deviation(back, ds)), 0.0)


def _inode(path: Path) -> int | None:
    return path.stat().st_ino if path.exists() else None


def check_pll_cache(rng: np.random.Generator, n: int = 2 * _READ_ROWS, d: int = 8,
                    m: int = 5) -> CheckResult:
    """The parse cache over four reads, each bitwise equal to the text's dataset.

    A cold read writes the sidecar.  A warm read must come from it: a miss
    would replace the sidecar with a new file, so its inode must not change.
    A read after one feature digit is edited, at the same file size, must
    miss and return the new value, and so must a read over a sidecar with
    one corrupted byte.  The deviation is ``_bit_deviation`` summed over
    the reads, plus one if the warm read rewrote the sidecar.
    """
    ds = _roundtrip_dataset(rng, n, d, m)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cache.pll"
        cache = Path(f"{path}{CACHE_SUFFIX}")
        write_pll_file(ds, path)
        dev = _bit_deviation(read_pll_file(path), ds)
        written = _inode(cache)
        dev += _bit_deviation(read_pll_file(path), ds)
        dev += written is None or _inode(cache) != written

        # the leading digit of row n//2's first feature, a standard normal
        lines = path.read_text(encoding="utf-8").split("\n")
        labels, features = lines[n // 2 + 1].rsplit(";", 1)
        tok, rest = features.split(" ", 1)
        at = next(i for i, ch in enumerate(tok) if ch.isdigit())
        tok = tok[:at] + str((int(tok[at]) + 1) % 10) + tok[at + 1 :]
        lines[n // 2 + 1] = f"{labels};{tok} {rest}"
        path.write_bytes("\n".join(lines).encode("utf-8"))
        feats = ds.features.copy()
        feats[n // 2, 0] = float(tok)
        edited = PartialDataset(feats, ds.candidates, m, hidden_truth=ds.hidden_truth)
        dev += _bit_deviation(read_pll_file(path), edited)

        blob = bytearray(cache.read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        cache.write_bytes(bytes(blob))
        dev += _bit_deviation(read_pll_file(path), edited)
    return CheckResult("pll-cache", float(dev), 0.0)


def loss_by_enumeration(probs: np.ndarray, lo, hi, mode: str) -> float:
    """Count loss from per-class enumerated pmfs, clamped as ``count_loss`` is."""
    total = 0.0
    for j in range(probs.shape[1]):
        q = min(float(np.sum(pmf_by_enumeration(probs[:, j])[lo[j] : hi[j] + 1])), 1.0)
        if mode == "nll":
            total -= max(math.log(q) if q > 0.0 else -math.inf, MIN_LOG_PROB)
        elif q > 0.0:
            total -= q * math.log(q)
    return total


def check_count_values(rng: np.random.Generator, cases: int = 20, max_n: int = 12,
                       values_fn=count_loss_values) -> CheckResult:
    """``count_loss_values`` over mixed-size batches vs enumerated losses.

    Each case is a list of batches of a few sizes, so batches are stacked
    into one DP per size and values must come back in batch order.
    """
    worst = 0.0
    for c in range(cases):
        m = int(rng.integers(2, 5))
        sizes = rng.integers(1, max_n + 1, size=3)
        batches = []
        for n in rng.choice(sizes, size=int(rng.integers(1, 7))):
            z = rng.standard_normal((n, m))
            probs = np.exp(z) / np.exp(z).sum(axis=1, keepdims=True)
            lo = rng.integers(0, n + 1, size=m)
            hi = lo + rng.integers(0, n + 1 - lo)
            batches.append((probs, lo, hi))
        mode = "nll" if c % 2 == 0 else "entropy"
        got = values_fn(batches, mode)
        for value, (probs, lo, hi) in zip(got, batches):
            worst = max(worst, relative_error(value, loss_by_enumeration(probs, lo, hi, mode)))
    return CheckResult("count-values-vs-enumeration", worst, 1e-10)


def run_all_checks(seed: int = 0, stress_n: int = 1024) -> list[CheckResult]:
    rng = np.random.default_rng(seed)
    return [
        check_count_pmf(rng),
        check_interval_probs(rng),
        check_count_loss_grad(rng),
        check_count_loss_grad_at_scale(rng),
        check_trainer_grad(rng),
        check_underflow_stress(stress_n),
        check_logsumexp_identity(),
        check_knn_brute_force(rng),
        check_pll_roundtrip(rng),
        check_count_values(rng),
        check_count_loss_log_fallback(rng),
        check_pll_cache(rng),
        check_enhanced_labels(rng),
    ]
