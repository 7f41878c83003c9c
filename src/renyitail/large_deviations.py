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

from ._special import log_gammaincc
from .rand_models import DistributionSpec, _index, _real, _unit, moment

__all__ = [
    "rate_function",
    "gamma_family_rates",
    "iid_comparison_rates",
    "log_gammaincc",
    "exact_hill_tail",
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
    r, c = _real(r, "r", positive=True), _unit(c, "c")
    upper = -r * c + r * math.log1p(c)
    lower = r * c + r * math.log1p(-c)
    return upper, lower


def iid_comparison_rates(c: float) -> tuple[float, float]:
    """Tail rates in the classical regularly-varying iid setup: the r = 1 pair
    (-c + log(1+c), c + log(1-c)), depending on the tail index alone.
    """
    return gamma_family_rates(1.0, c)


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


def _tail_rate(spec: DistributionSpec, y: float) -> float:
    """inf_{x >= y} I(x): the rate governing P(hill >= y)."""
    if math.isnan(y):
        raise ValueError("y must not be NaN")
    if y <= moment(spec, 1):
        return 0.0
    return rate_function(spec, y)
