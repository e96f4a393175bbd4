"""Self-contained oracle checks: brute-force enumeration and finite
differences against the fast paths.  The CLI `check` subcommand runs these
in CI; the test suite reuses the same oracles.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .countloss import (
    CountInterval,
    count_log_pmf,
    count_loss,
    interval_log_prob,
    logsumexp,
)
from .neural import Mlp, backward, forward, reweighted_ce
from .reweight import build_weight_matrix


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
        dev = np.max(np.abs(np.exp(pmf_fn(np.log(p)).log_pmf) - pmf_by_enumeration(p)))
        worst = max(worst, float(dev))
    return CheckResult("count-pmf-vs-enumeration", worst, 1e-10)


def check_interval_probs(rng: np.random.Generator, cases: int = 200, max_n: int = 12,
                         pmf_fn=count_log_pmf) -> CheckResult:
    """Interval probabilities vs direct sums over the enumerated pmf."""
    worst = 0.0
    for _ in range(cases):
        n = int(rng.integers(1, max_n + 1))
        p = rng.random(n)
        lo = int(rng.integers(0, n + 1))
        hi = int(rng.integers(lo, n + 1))
        got = math.exp(interval_log_prob(pmf_fn(np.log(p)), CountInterval(lo, hi)))
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
        intervals = []
        for _ in range(m):
            lo = int(rng.integers(0, n))
            hi = int(rng.integers(lo, n + 1))
            intervals.append(CountInterval(lo, hi))
        mode = "nll" if c % 2 == 0 else "entropy"
        res = count_loss(probs, intervals, mode)
        for i in range(n):
            for j in range(m):
                plus = probs.copy()
                plus[i, j] += h
                minus = probs.copy()
                minus[i, j] -= h
                fd = (count_loss(plus, intervals, mode).loss
                      - count_loss(minus, intervals, mode).loss) / (2.0 * h)
                worst = max(worst, relative_error(res.grad[i, j], fd))
    return CheckResult("count-loss-grad-vs-fd", worst, 1e-6)


def _clipped_interval_prob(dist, lo: int, hi: int) -> float:
    """P(lo <= count <= hi) with the interval clipped to the support 0..n."""
    lo, hi = max(lo, 0), min(hi, dist.n)
    if lo > hi:
        return 0.0
    return math.exp(interval_log_prob(dist, CountInterval(lo, hi)))


def check_count_loss_grad_at_scale(rng: np.random.Generator, n: int = 1000, m: int = 3,
                                   rows: int = 16) -> CheckResult:
    """Blocked count-loss gradient vs the leave-one-out identity at batch size n.

    For q = P(S in [lo, hi]) and S_{-i} the count without item i,

        dq/dp_i = P(S_{-i} in [lo-1, hi-1]) - P(S_{-i} in [lo, hi]),

    evaluated with ``count_log_pmf`` on the other n - 1 items.  n = 1000 is
    not a multiple of the gradient's row block, so the partial block is
    covered; the intervals touch lo = 0 and hi = n.
    """
    z = rng.standard_normal((n, m))
    probs = np.exp(z) / np.exp(z).sum(axis=1, keepdims=True)
    mean = probs.sum(axis=0)
    sd = np.sqrt(np.sum(probs * (1.0 - probs), axis=0))
    bounds = [(int(mean[j] - sd[j]), int(mean[j] + sd[j]) + 1) for j in range(m)]
    bounds[0] = (0, int(mean[0]))
    bounds[-1] = (int(mean[-1] - 2.0 * sd[-1]), n)
    intervals = [CountInterval(lo, hi) for lo, hi in bounds]
    res = count_loss(probs, intervals, "nll")

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


def total_objective(model: Mlp, X, weights, intervals, lam: float, mode: str) -> float:
    """Combined loss used by the trainer step, as a pure function of the model."""
    _, probs = forward(model, X)
    rl, _, _ = reweighted_ce(probs, weights)
    return rl + lam * count_loss(probs, intervals, mode).loss


def check_trainer_grad(rng: np.random.Generator, cases: int = 50, h: float = 1e-5) -> CheckResult:
    """Full-chain parameter gradients of the combined objective vs FD."""
    from .countloss import batch_intervals
    from .data import generate_synthetic

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
        enhanced = [
            cs.labels()[int(rng.integers(0, cs.cardinality()))] for cs in candidates
        ]
        wm = build_weight_matrix(candidates, m, enhanced, temperature=2.0)
        intervals = batch_intervals(candidates, m)
        lam = 0.7
        mode = "nll" if c % 2 == 0 else "entropy"

        _, probs = forward(model, X)
        _, grad_logits, _ = reweighted_ce(probs, wm.weights)
        cres = count_loss(probs, intervals, mode)
        gdotp = np.sum(cres.grad * probs, axis=1, keepdims=True)
        grad_logits = grad_logits + lam * probs * (cres.grad - gdotp)
        grads = backward(model, X, grad_logits)

        for p, g in zip(model.parameters(), grads):
            flat = p.reshape(-1)
            gflat = g.reshape(-1)
            for idx in range(flat.size):
                orig = flat[idx]
                flat[idx] = orig + h
                up = total_objective(model, X, wm.weights, intervals, lam, mode)
                flat[idx] = orig - h
                down = total_objective(model, X, wm.weights, intervals, lam, mode)
                flat[idx] = orig
                worst = max(worst, relative_error(gflat[idx], (up - down) / (2.0 * h)))
    return CheckResult("trainer-grad-vs-fd", worst, 1e-4)


def check_underflow_stress(n: int = 1024) -> CheckResult:
    """Large-n pmf stays finite and normalized where direct space underflows."""
    p = np.empty(n)
    p[0::3] = 1e-12
    p[1::3] = 0.5
    p[2::3] = 1.0 - 1e-12
    dist = count_log_pmf(np.log(p))
    if not np.all(np.isfinite(dist.log_pmf)):
        return CheckResult(f"underflow-stress-n{n}", math.inf, 1e-9)
    dev = abs(math.exp(logsumexp(dist.log_pmf)) - 1.0)
    return CheckResult(f"underflow-stress-n{n}", dev, 1e-9)


def check_logsumexp_identity() -> CheckResult:
    dev = abs(logsumexp([-1000.0, -1000.0]) - (-1000.0 + math.log(2.0)))
    return CheckResult("logsumexp-shift-identity", dev, 1e-12)


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
    ]
