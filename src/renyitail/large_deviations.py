"""Exponential decay rates for Hill-estimator tail probabilities.

``rate_function`` is the Cramér rate I(z) = sup_t (zt - log M(t)) of the
spacing law, in closed form for the exponential, gamma and Bernoulli laws
and by one monotone root for the uniform law; P(hill >= y) decays like
exp(-k inf_{x>=y} I(x)).  For exponential and gamma spacings the tail is
available in closed form through a log-scale incomplete gamma, which doubles
as the deep-tail oracle where naive Monte Carlo sees no events.
"""

from __future__ import annotations

import math
import sys
from contextlib import closing
from dataclasses import dataclass

import numpy as np

from .engine import SeedSpec, _Job, _replications
from .rand_models import DistributionSpec, _index, draw, moment

__all__ = [
    "rate_function",
    "gamma_family_rates",
    "iid_comparison_rates",
    "log_gammaincc",
    "exact_hill_tail",
    "MCTailResult",
    "mc_tail_logprob",
]


def _unif_slope(x: float) -> tuple[float, float]:
    """f(x) = L'(x) and f'(x) for L(x) = log(expm1(x)/x), x < 0: the log-mgf of
    unif(0, 1) and its derivatives.  The series serves |x| < 1e-2."""
    if x > -1e-2:
        x2 = x * x
        return (0.5 + x * (1.0 / 12.0 - x2 * (1.0 / 720.0 - x2 / 30240.0)),
                1.0 / 12.0 - x2 * (1.0 / 240.0 - x2 / 6048.0))
    em1 = math.expm1(x)
    return 1.0 + 1.0 / em1 - 1.0 / x, 1.0 / (x * x) - math.exp(x) / (em1 * em1)


def _unif_rate(s: float) -> float:
    """I at z = s a for unif(0, a), s in (0, 1/2]; I(a - z) = I(z) by symmetry.

    With x = at, I = s x - L(x) at the root of f(x) = s, which lies in
    [-1/s, 0).  Safeguarded Newton steps find it; below s = 1/64 the root is
    -1/s up to a relative e^(-1/s) and I = -1 - log s.
    """
    if s == 0.5:
        return 0.0
    if s < 1.0 / 64.0:
        return -1.0 - math.log(s)
    lo, hi = -1.0 / s, 0.0
    x = 1.0 / (1.0 - s) - 1.0 / s
    for _ in range(100):
        fx, dfx = _unif_slope(x)
        if fx < s:
            lo = x
        else:
            hi = x
        step = x - (fx - s) / dfx
        if not lo < step < hi:
            step = 0.5 * (lo + hi)
        if abs(step - x) <= 4e-16 * abs(x):
            break
        x = step
    if x > -1e-2:  # s x - L(x) with L - x/2 = x^2/24 - x^4/2880 + x^6/181440
        x2 = x * x
        return x * (s - 0.5) - x2 * (1.0 / 24.0 - x2 * (1.0 / 2880.0 - x2 / 181440.0))
    return s * x - math.log(math.expm1(x) / x)


def rate_function(spec: DistributionSpec, z: float) -> float:
    """Cramér rate I(z) = sup_t (z t - log M(t)) of a spacing law, with u = z/gamma:

    - exp: u - 1 - log u; gamma(r, r/gamma): r times that;
    - bern: z log(z/gamma) + (1-z) log((1-z)/(1-gamma)), -log of the atom's
      mass at z = 0 or 1;
    - unif(0, a): one root of Lambda'(t) = z, then z t - Lambda(t).

    Returns math.inf outside the closed support hull and at a hull endpoint
    carrying no atom (for bern:gamma=1, everywhere but z = 1); raises
    ValueError for a NaN z and for laws without a finite mgf near 0.
    """
    if math.isnan(z):
        raise ValueError("z must not be NaN")
    g = spec.gamma
    if spec.kind in ("exp", "gamma"):
        u = z / g
        if not 0.0 < z < math.inf or u == math.inf:
            return math.inf
        # a subnormal or zero u has lost its digits: take log u from z and gamma
        log_u = math.log(u) if u >= sys.float_info.min else math.log(z) - math.log(g)
        return (spec.r if spec.kind == "gamma" else 1.0) * (u - 1.0 - log_u)
    if spec.kind == "bern":
        if not 0.0 <= z <= 1.0 or (z < 1.0 and g == 1.0):
            return math.inf
        upper = z * math.log(z / g) if z > 0.0 else 0.0
        lower = (1.0 - z) * math.log((1.0 - z) / (1.0 - g)) if z < 1.0 else 0.0
        return max(upper + lower, 0.0)  # near the mean the terms cancel to below 0
    if spec.kind == "unif":
        a = 2.0 * g
        s = min(z, a - z) / a  # the distance to the nearer end, exact for z >= a/2
        return _unif_rate(s) if s > 0.0 else math.inf
    raise ValueError(f"{spec.kind!r} has no finite mgf in a neighborhood of 0")


def gamma_family_rates(r: float, c: float) -> tuple[float, float]:
    """Limiting (1/k) log P(hill/gamma >= 1+c) and <= 1-c for gamma(r, r/gamma)
    spacings: (-rc + r log(1+c), rc + r log(1-c)).
    """
    if not 0.0 < r < math.inf:
        raise ValueError("r must be positive and finite")
    if not 0.0 < c < 1.0:
        raise ValueError("c must lie in (0, 1)")
    upper = -r * c + r * math.log1p(c)
    lower = r * c + r * math.log1p(-c)
    return upper, lower


def iid_comparison_rates(c: float) -> tuple[float, float]:
    """Tail rates in the classical regularly-varying iid setup: the r = 1 pair
    (-c + log(1+c), c + log(1-c)), depending on the tail index alone.
    """
    return gamma_family_rates(1.0, c)


def log_gammaincc(a: float, x: float) -> float:
    """log of the regularized upper incomplete gamma Q(a, x), stable deep in
    the tail.

    Continued fraction (modified Lentz) for x > a+1, series for the lower
    function otherwise.  The log prefactor -x + a log x - lgamma(a) cancels,
    so its absolute error grows like a log(a) 2^-53 (about 1e-8 at a = 1e7).
    Near x = a the step count grows like sqrt(a); a loop that reaches its
    cap raises ValueError rather than return an unconverged value.
    """
    if not 0.0 < a < math.inf:
        raise ValueError("shape a must be positive and finite")
    if math.isnan(x):
        raise ValueError("x must not be NaN")
    if x <= 0.0:
        return 0.0
    if x == math.inf:
        return -math.inf
    log_prefactor = -x + a * math.log(x) - math.lgamma(a)
    if x > a + 1.0:
        tiny = 1e-300
        b = x + 1.0 - a
        c = 1.0 / tiny
        d = 1.0 / b if b != 0.0 else 1.0 / tiny
        f = d
        for i in range(1, 10000):
            an = -i * (i - a)
            b += 2.0
            d = an * d + b
            if abs(d) < tiny:
                d = tiny
            c = b + an / c
            if abs(c) < tiny:
                c = tiny
            d = 1.0 / d
            delta = d * c
            f *= delta
            if abs(delta - 1.0) < 1e-16:
                break
        else:
            raise ValueError(f"continued fraction did not converge at a = {a!r}, x = {x!r}")
        return log_prefactor + math.log(f)
    # series for P(a, x); Q = 1 - P is not small on this branch
    term = 1.0 / a
    total = term
    for i in range(1, 100000):
        term *= x / (a + i)
        total += term
        if term < total * 1e-17:
            break
    else:
        raise ValueError(f"series did not converge at a = {a!r}, x = {x!r}")
    log_p = log_prefactor + math.log(total)
    if log_p >= 0.0:
        return -math.inf
    return math.log1p(-math.exp(log_p))


def exact_hill_tail(spec: DistributionSpec, k: int, y: float) -> float:
    """log P(hill(k) >= y) for exponential or gamma spacings.

    k * hill(k) is a sum of k iid gamma(r, r/gamma) variables, hence
    gamma(k r, r/gamma); the tail is a regularized upper incomplete gamma.
    """
    k = _index(k, "k", 1)
    if math.isnan(y):
        raise ValueError("y must not be NaN")
    if spec.kind == "exp":
        shape, rate = 1.0, 1.0 / spec.gamma
    elif spec.kind == "gamma":
        shape, rate = spec.r, spec.r / spec.gamma
    else:
        raise ValueError(f"exact tail requires exponential or gamma spacings, got {spec.kind!r}")
    if y <= 0.0:
        return 0.0  # nonnegative spacings: the event is sure
    return log_gammaincc(k * shape, rate * k * y)


@dataclass(frozen=True)
class MCTailResult:
    """Monte Carlo estimate of (1/k) log P(hill(k) >= y)."""

    estimate: float | None
    std_error: float | None
    events: int
    reps: int
    insufficient: bool


def _tail_rate(spec: DistributionSpec, y: float) -> float:
    """inf_{x >= y} I(x): the rate governing P(hill >= y)."""
    if math.isnan(y):
        raise ValueError("y must not be NaN")
    if y <= moment(spec, 1):
        return 0.0
    return rate_function(spec, y)


def _tail_job(spec: DistributionSpec, k: int, y: float, reps: int, seed: SeedSpec) -> _Job:
    """The replication job of one k: each replication draws k values, and
    the job's fold marks the rows whose mean is at least y."""

    def one_rep(rng) -> np.ndarray:
        return draw(spec, rng, k)

    def hits(block: np.ndarray) -> np.ndarray:
        # each row reduces as the row alone would, and .mean() is that add.reduce
        # divided by the count, so these are the bits of draw(...).mean() >= y
        return np.add.reduce(block, axis=1) / k >= y

    tag = f"mc_tail/{spec.canonical()}/k={k}/y={y!r}/s={seed.stream_index}"
    return _Job(one_rep, reps, tag, fold=hits)


def _tail_results(spec: DistributionSpec, ks, y: float, reps: int, seed: SeedSpec,
                  workers: int):
    """Yield the ``mc_tail_logprob`` result of each k of ks, in order.

    A k is declined when the expected event count reps * exp(-k * rate)
    falls below 100; every other k is one job of a single ``_replications``
    run, which forks the worker processes once for all of ks.
    """
    ks, reps = [_index(k, "k", 1) for k in ks], _index(reps, "reps", 1)
    rate = _tail_rate(spec, y)
    runs = [reps * math.exp(-k * rate) >= 100.0 for k in ks]  # an infinite rate gives exp 0
    jobs = [_tail_job(spec, k, y, reps, seed) for k, run in zip(ks, runs) if run]
    with closing(_replications(jobs, seed.master_seed, workers)) as hits:
        for k, run in zip(ks, runs):
            events = int(np.count_nonzero(next(hits))) if run else 0
            if events == 0:
                yield MCTailResult(None, None, 0, reps, True)
                continue
            p_hat = events / reps
            se = math.sqrt((1.0 - p_hat) / (reps * p_hat)) / k
            yield MCTailResult(math.log(p_hat) / k, se, events, reps, False)


def mc_tail_logprob(spec: DistributionSpec, k: int, y: float, reps: int,
                    seed: SeedSpec, workers: int = 1) -> MCTailResult:
    """Estimate (1/k) log P(hill(k) >= y) from raw replication frequencies.

    Declines to report a number when the expected event count
    reps * exp(-k * rate) falls below 100, or when no events occur.
    """
    (result,) = _tail_results(spec, (k,), y, reps, seed, workers)
    return result
