"""Exponential decay rates for Hill-estimator tail probabilities.

``rate_function`` is the Legendre transform I(z) = sup_t (zt - log M(t)) of
the spacing law's log-mgf; P(hill >= y) decays like exp(-k inf_{x>=y} I(x)).
For exponential and gamma spacings the tail is available in closed form
through a log-scale incomplete gamma, which doubles as the deep-tail oracle
where naive Monte Carlo sees no events.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .rand_models import (
    DistributionSpec,
    SeedSpec,
    atom_mass,
    draw,
    mgf,
    mgf_domain,
    moment,
    replication_map,
    support,
)

__all__ = [
    "rate_function",
    "gamma_family_rates",
    "iid_comparison_rates",
    "log_gammaincc",
    "exact_hill_tail",
    "MCTailResult",
    "mc_tail_logprob",
]

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def _dual_objective(spec: DistributionSpec, z: float, t: float) -> float:
    m = mgf(spec, t)
    if math.isinf(m):
        return -math.inf
    return z * t - math.log(m)


def _bracket_maximum(g, probes) -> tuple[float, float] | None:
    """Walk probe points away from 0 until the concave g stops increasing.

    Returns an interval containing the maximizer, or None when g is still
    rising at the last probe (the supremum is not attained).
    """
    tpp, gpp = 0.0, g(0.0)
    tp, gp = None, None
    for t in probes:
        gt = g(t)
        if tp is None:
            if gt <= gpp:
                return (min(0.0, t), max(0.0, t))
            tp, gp = t, gt
            continue
        if gt <= gp:
            return (min(tpp, t), max(tpp, t))
        tpp, gpp, tp, gp = tp, gp, t, gt
    return None


def _golden_max(g, lo: float, hi: float) -> float:
    x1 = hi - _GOLDEN * (hi - lo)
    x2 = lo + _GOLDEN * (hi - lo)
    g1, g2 = g(x1), g(x2)
    for _ in range(300):
        if g1 < g2:
            lo, x1, g1 = x1, x2, g2
            x2 = lo + _GOLDEN * (hi - lo)
            g2 = g(x2)
        else:
            hi, x2, g2 = x2, x1, g1
            x1 = hi - _GOLDEN * (hi - lo)
            g1 = g(x1)
        if hi - lo < 1e-12 * (1.0 + abs(lo) + abs(hi)):
            break
    return max(g1, g2)


def rate_function(spec: DistributionSpec, z: float) -> float:
    """Legendre transform I(z) = sup_t (z t - log M(t)).

    Returns math.inf outside the closed support hull and at a hull endpoint
    carrying no atom; requires a spec whose mgf is finite near 0.  The
    maximizer is bracketed by geometric probes that approach a finite mgf
    boundary without ever evaluating it, then refined by golden section.
    """
    t_lo, t_hi = mgf_domain(spec)  # rejects Pareto-type laws
    lo, hi = support(spec)
    if z < lo or z > hi:
        return math.inf
    if z == lo or (z == hi and math.isfinite(hi)):
        p = atom_mass(spec, z)
        return -math.log(p) if p > 0 else math.inf
    mean = moment(spec, 1)
    if z == mean:
        return 0.0

    g = lambda t: _dual_objective(spec, z, t)
    edge, sign = (t_hi, 1.0) if z > mean else (t_lo, -1.0)  # the side the maximizer lies on
    if math.isfinite(edge):
        probes = (edge * (1.0 - 0.5**i) for i in range(1, 1075))
    else:
        probes = (sign * 2.0 ** (i - 1) for i in range(1, 300))
    bracket = _bracket_maximum(g, probes)
    if bracket is None:
        return math.inf
    return max(_golden_max(g, *bracket), 0.0)


def gamma_family_rates(r: float, c: float) -> tuple[float, float]:
    """Limiting (1/k) log P(hill/gamma >= 1+c) and <= 1-c for gamma(r, r/gamma)
    spacings: (-rc + r log(1+c), rc + r log(1-c)).
    """
    if not r > 0:
        raise ValueError("r must be positive")
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
    function otherwise; relative accuracy in the log around 1e-13.
    """
    if a <= 0:
        raise ValueError("shape a must be positive")
    if x <= 0.0:
        return 0.0
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
        return log_prefactor + math.log(f)
    # series for P(a, x); Q = 1 - P is not small on this branch
    term = 1.0 / a
    total = term
    for i in range(1, 100000):
        term *= x / (a + i)
        total += term
        if term < total * 1e-17:
            break
    log_p = log_prefactor + math.log(total)
    if log_p >= 0.0:
        return -math.inf
    return math.log1p(-math.exp(log_p))


def exact_hill_tail(spec: DistributionSpec, k: int, y: float) -> float:
    """log P(hill(k) >= y) for exponential or gamma spacings.

    k * hill(k) is a sum of k iid gamma(r, r/gamma) variables, hence
    gamma(k r, r/gamma); the tail is a regularized upper incomplete gamma.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
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
    if y <= moment(spec, 1):
        return 0.0
    return rate_function(spec, y)


def mc_tail_logprob(spec: DistributionSpec, k: int, y: float, reps: int,
                    seed: SeedSpec, workers: int = 1) -> MCTailResult:
    """Estimate (1/k) log P(hill(k) >= y) from raw replication frequencies.

    Declines to report a number when the expected event count
    reps * exp(-k * rate) falls below 100, or when no events occur.
    """
    if k < 1 or reps < 1:
        raise ValueError("k and reps must be positive")
    rate = _tail_rate(spec, y)
    if math.isinf(rate) or reps * math.exp(-k * rate) < 100.0:
        return MCTailResult(None, None, 0, reps, True)

    def one_rep(rng) -> float:
        # the same bits as .mean() (add.reduce over the count) at half the cost
        return 1.0 if float(draw(spec, rng, k).sum()) / k >= y else 0.0

    tag = f"mc_tail/{spec.canonical()}/k={k}/y={y!r}/s={seed.stream_index}"
    hits = replication_map(one_rep, reps, seed.master_seed, tag, workers=workers)
    events = int(np.sum(hits))
    if events == 0:
        return MCTailResult(None, None, 0, reps, True)
    p_hat = events / reps
    est = math.log(p_hat) / k
    se = math.sqrt((1.0 - p_hat) / (reps * p_hat)) / k
    return MCTailResult(est, se, events, reps, False)
