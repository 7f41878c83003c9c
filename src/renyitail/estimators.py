"""Point estimators of the mean spacing gamma and their interval half-width.

The Hill estimator is the average of the top-k scaled log-spacings; the
quantile estimator reads gamma off a single empirical log-quantile and pays
the variance multiplier h(s); the uniform-spacings ML estimator is half the
largest top-k spacing.  ``half_width`` is the one normal-limit half-width
scale * x_eps / sqrt(m): the CLI's intervals and the coverage experiment
both take it, with scale sigma_hat or gamma_hat over m = k, or
sigma_hat * sqrt(h(s)) over m = n for the quantile estimator.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import lambertw, ndtri

from .renyi import HeavySample

__all__ = [
    "hill",
    "hill_trajectory",
    "quantile_estimator",
    "h_function",
    "h_minimizer",
    "spacing_sigma",
    "ml_uniform",
    "half_width",
]


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
    top = np.cumsum(h.zhat[::-1][:kmax])
    gamma_hat = top[ks - 1] / ks
    return float(gamma_hat) if ks.ndim == 0 else gamma_hat


def hill_trajectory(h: HeavySample) -> np.ndarray:
    """hill(h, k) for every k = 1..n."""
    return hill(h, np.arange(1, h.n + 1))


def _ceil_index(n: int, s):
    """Smallest integer >= n*s, snapping to an integer within 1e-9; elementwise over an s array."""
    ns = n * np.asarray(s, dtype=np.float64)
    nearest = np.round(ns)
    return np.where(np.abs(ns - nearest) < 1e-9, nearest, np.ceil(ns)).astype(np.int64)


def _quantile_terms(n: int, s) -> tuple[np.ndarray, np.ndarray]:
    """The 0-based index ceil(ns) - 1 and the divisor -log(1-s) of gamma_tilde(s),
    for a level or a 1-d grid of levels.
    """
    s = np.asarray(s, dtype=np.float64)
    if s.ndim > 1 or s.size == 0 or not np.all((0.0 < s) & (s < 1.0)):
        raise ValueError("s must be a level or a nonempty 1-d grid in (0, 1)")
    idx = _ceil_index(n, s)
    if idx.min() < 1:
        raise ValueError(f"ceil(n*s) = {idx.min()} must be at least 1")
    return idx - 1, -np.log1p(-s)


def quantile_estimator(x, s):
    """gamma_tilde(s) = x_{ceil(ns)} / (-log(1-s)) on the log-scale sample x = log(w/C).

    ``s`` is a level in (0, 1) (a float is returned) or a nonempty 1-d grid of
    levels (one estimate per entry, each equal to the scalar call bit for bit).
    """
    x = np.asarray(x, dtype=np.float64)
    idx, denom = _quantile_terms(len(x), s)
    gamma_tilde = x[idx] / denom
    return float(gamma_tilde) if idx.ndim == 0 else gamma_tilde


def h_function(s: float) -> float:
    """Variance multiplier h(s) = s / ((1-s) log(1-s)^2) of the quantile estimator."""
    if not 0.0 < s < 1.0:
        raise ValueError("s must lie in (0, 1)")
    return s / ((1.0 - s) * math.log1p(-s) ** 2)


def h_minimizer() -> tuple[float, float]:
    """Locate the unique minimum of h: the root of log(1/(1-s)) = 2s in (0, 1).

    That is the nonzero root of 1 - s = e^(-2s), s0 = 1 + W0(-2e^-2)/2 with the
    principal Lambert W branch; returns (s0, h(s0)).
    """
    s0 = 1.0 + 0.5 * float(lambertw(-2.0 * math.exp(-2.0)).real)
    return s0, h_function(s0)


def spacing_sigma(h: HeavySample, k):
    """Empirical standard deviation of the first k scaled log-spacings (1/(k-1) divisor).

    ``k`` is an int >= 2 (a float is returned) or a nonempty 1-d integer array of them.
    One pass of running sums c1 = sum z, c2 = sum z^2 serves every k:
    var = (c2 - c1*c1/k)/(k-1), clipped at 0 against roundoff.  c1*c1 rather than
    c1**2: numpy squares a 0-d scalar and an array element differently in the last bit.
    """
    ks, kmax = _check_k(h.n, k, minimum=2)
    zhat = h.zhat[:kmax]
    c1 = np.cumsum(zhat)[ks - 1]
    c2 = np.cumsum(zhat * zhat)[ks - 1]
    sigma = np.sqrt(np.maximum((c2 - c1 * c1 / ks) / (ks - 1), 0.0))
    return float(sigma) if ks.ndim == 0 else sigma


def ml_uniform(h: HeavySample, k: int) -> float:
    """ML estimate of gamma under uniform(0, 2*gamma) spacings:
    half the maximum of the top-k scaled log-spacings.
    """
    _check_k(h.n, k)
    return 0.5 * float(np.max(h.zhat[h.n - k:]))


def half_width(scale, m, eps: float):
    """Normal-limit interval half-width scale * x_eps / sqrt(m), with
    x_eps = Phi^-1(1 - eps/2); elementwise over array scale and m.
    """
    if not 0.0 < eps < 1.0:
        raise ValueError("eps must lie in (0, 1)")
    return scale * float(ndtri(1.0 - eps / 2.0)) / np.sqrt(m)
