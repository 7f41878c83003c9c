"""Point estimators of the mean spacing gamma and their confidence intervals.

The Hill estimator is the average of the top-k scaled log-spacings; the
quantile estimator reads gamma off a single empirical log-quantile and pays
the variance multiplier h(s); the uniform-spacings ML estimator is half the
largest top-k spacing.  Interval half-widths follow the normal-limit
formulas with the requested variance proxy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

from .renyi import HeavySample, RenyiSample, scaled_log_spacings

__all__ = [
    "EstimateWithCI",
    "hill",
    "hill_trajectory",
    "quantile_estimator",
    "empirical_quantile",
    "h_function",
    "h_minimizer",
    "spacing_sigma",
    "ml_uniform",
    "ci_spacing",
    "ci_hill_self",
    "ci_quantile",
]


@dataclass(frozen=True)
class EstimateWithCI:
    """Point estimate with an optional symmetric confidence interval."""

    gamma_hat: float
    lower: float
    upper: float
    k_used: int
    level: float
    method: str  # hill | quantile | ml_uniform
    interval_method: str  # spacing_variance | hill_self | quantile_h | none

    def __post_init__(self):
        if not (self.lower <= self.gamma_hat <= self.upper):
            raise ValueError("interval must contain the point estimate")


def _check_k(n: int, k, minimum: int = 1) -> tuple[np.ndarray, int]:
    """k as an integer array (0-d for an int) with entries in minimum..n, and its largest entry."""
    ks = np.asarray(k)
    if ks.dtype.kind not in "iu" or ks.ndim > 1 or ks.size == 0:
        raise ValueError(f"k must be an integer or a nonempty 1-d integer array, got {k!r}")
    kmax = int(ks.max())
    if ks.min() < minimum or kmax > n:
        raise ValueError(f"k must lie in {minimum}..{n}, got {k}")
    return ks, kmax


def hill(h: HeavySample, k):
    """Average of the top-k scaled log-spacings,
    (1/k) sum_{j=1..k} j (log w_{n-j+1} - log w_{n-j}), with w_0 = C.

    ``k`` is an int (a float is returned) or a nonempty 1-d integer array
    (one estimate per entry).  Every k reads the same running sum of the spacings
    from the top, so a grid costs one pass and each entry equals the scalar
    call bit for bit.
    """
    ks, kmax = _check_k(h.n, k)
    top = np.cumsum(scaled_log_spacings(h)[::-1][:kmax])
    gamma_hat = top[ks - 1] / ks
    return float(gamma_hat) if ks.ndim == 0 else gamma_hat


def hill_trajectory(h: HeavySample) -> np.ndarray:
    """hill(h, k) for every k = 1..n."""
    return hill(h, np.arange(1, h.n + 1))


def _ceil_index(n: int, s: float) -> int:
    """Smallest integer >= n*s, snapping to an integer within 1e-9."""
    ns = n * s
    nearest = round(ns)
    if abs(ns - nearest) < 1e-9:
        return int(nearest)
    return int(math.ceil(ns))


def quantile_estimator(r: RenyiSample, s: float) -> float:
    """gamma_tilde(s) = x_{ceil(ns)} / (-log(1-s))."""
    return empirical_quantile(r, s, which="log") / (-math.log1p(-s))


def empirical_quantile(r: RenyiSample, s: float, which: str = "log") -> float:
    """Empirical quantile of the sample: on log scale (x itself) or level scale e^x."""
    if not 0.0 < s < 1.0:
        raise ValueError("s must lie in (0, 1)")
    idx = _ceil_index(r.n, s)
    if idx < 1:
        raise ValueError(f"ceil(n*s) = {idx} must be at least 1")
    q1 = float(r.x[idx - 1])
    if which == "log":
        return q1
    if which == "level":
        return math.exp(q1)
    raise ValueError(f"unknown quantile scale {which!r}")


def h_function(s: float) -> float:
    """Variance multiplier h(s) = s / ((1-s) log(1-s)^2) of the quantile estimator."""
    if not 0.0 < s < 1.0:
        raise ValueError("s must lie in (0, 1)")
    return s / ((1.0 - s) * math.log1p(-s) ** 2)


def h_minimizer() -> tuple[float, float]:
    """Locate the unique minimum of h: the root of log(1/(1-s)) = 2s in (0, 1).

    Bisection to 1e-10; returns (s0, h(s0)).
    """
    f = lambda s: -math.log1p(-s) - 2.0 * s
    lo, hi = 0.5, 0.999  # f < 0 at 0.5, > 0 near 1; the root at 0 is excluded
    while hi - lo > 1e-10:
        mid = 0.5 * (lo + hi)
        if f(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    s0 = 0.5 * (lo + hi)
    return s0, h_function(s0)


def spacing_sigma(h: HeavySample, k):
    """Empirical standard deviation of the first k scaled log-spacings (1/(k-1) divisor).

    ``k`` is an int >= 2 (a float is returned) or a nonempty 1-d integer array of them.
    One pass of running sums c1 = sum z, c2 = sum z^2 serves every k:
    var = (c2 - c1^2/k)/(k-1), clipped at 0 against roundoff.
    """
    ks, kmax = _check_k(h.n, k, minimum=2)
    zhat = scaled_log_spacings(h)[:kmax]
    c1 = np.cumsum(zhat)[ks - 1]
    c2 = np.cumsum(zhat * zhat)[ks - 1]
    sigma = np.sqrt(np.maximum((c2 - c1**2 / ks) / (ks - 1), 0.0))
    return float(sigma) if ks.ndim == 0 else sigma


def ml_uniform(h: HeavySample, k: int) -> float:
    """ML estimate of gamma under uniform(0, 2*gamma) spacings:
    half the maximum of the top-k scaled log-spacings.
    """
    _check_k(h.n, k)
    zhat = scaled_log_spacings(h)
    return 0.5 * float(np.max(zhat[h.n - k:]))


def _x_eps(eps: float) -> float:
    if not 0.0 < eps < 1.0:
        raise ValueError("eps must lie in (0, 1)")
    return float(ndtri(1.0 - eps / 2.0))


def ci_spacing(gamma_hat: float, sigma_hat: float, k: int, eps: float) -> EstimateWithCI:
    """Interval gamma_hat +- sigma_hat * x_eps / sqrt(k)."""
    if k < 1:
        raise ValueError("k must be at least 1")
    half = sigma_hat * _x_eps(eps) / math.sqrt(k)
    return EstimateWithCI(gamma_hat, gamma_hat - half, gamma_hat + half,
                          k, 1.0 - eps, "hill", "spacing_variance")


def ci_hill_self(gamma_hat: float, k: int, eps: float) -> EstimateWithCI:
    """Interval gamma_hat +- gamma_hat * x_eps / sqrt(k) (iid-style self-normalized)."""
    if k < 1:
        raise ValueError("k must be at least 1")
    half = gamma_hat * _x_eps(eps) / math.sqrt(k)
    return EstimateWithCI(gamma_hat, gamma_hat - half, gamma_hat + half,
                          k, 1.0 - eps, "hill", "hill_self")


def ci_quantile(gamma_tilde: float, sigma_hat: float, s: float, n: int,
                eps: float) -> EstimateWithCI:
    """Interval gamma_tilde +- sigma_hat * sqrt(h(s)) * x_eps / sqrt(n)."""
    if n < 1:
        raise ValueError("n must be at least 1")
    half = sigma_hat * math.sqrt(h_function(s)) * _x_eps(eps) / math.sqrt(n)
    return EstimateWithCI(gamma_tilde, gamma_tilde - half, gamma_tilde + half,
                          n, 1.0 - eps, "quantile", "quantile_h")
