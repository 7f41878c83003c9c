"""Point estimators of the mean spacing gamma and their interval half-width.

The Hill estimator is the average of the top-k scaled log-spacings; the
quantile estimator reads gamma off a single empirical log-quantile and pays
the variance multiplier h(s); the uniform-spacings ML estimator is half the
largest top-k spacing.  ``half_width`` is the one normal-limit half-width
scale * x_eps / sqrt(m): the CLI's intervals and the coverage experiment
both take it, with scale sigma_hat or gamma_hat over m = k, or
sigma_hat * sqrt(h(s)) over m = n for the quantile estimator.  Hill and
sigma_hat come from one kernel that sums the top-k spacings and their squares
in one complex prefix sum, with the bits of two real ones.
"""

from __future__ import annotations

import math

import numpy as np

from ._special import _ndtri
from .rand_models import _unit
from .renyi import HeavySample

__all__ = [
    "hill",
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
    if n < minimum:  # no k fits, whatever k was asked for
        raise ValueError(f"the sample needs at least {minimum} values, got {n}")
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
    gamma_hat = _hill(h.zhat, ks - 1, ks, kmax)
    return float(gamma_hat) if ks.ndim == 0 else gamma_hat


def _top(zhat: np.ndarray, k: int) -> np.ndarray:
    """The top-k block: the scaled log-spacings of the k largest values, from the top down."""
    return zhat[::-1][:k]


def _hill(zhat: np.ndarray, idx, ks, kmax: int):
    """hill on checked input, arguments as in _hill_sigma: its first value, bit for bit."""
    return np.cumsum(_top(zhat, kmax))[idx] / ks


def _hill_sigma(zhat: np.ndarray, idx, ks, kmax: int):
    """(hill, spacing_sigma) on checked input, idx = k - 1, ks = k (int or float64,
    same bits), kmax = max k: from running sums c1 = sum z, c2 = sum z^2 over the
    top-k block, c1/k and sqrt((c2 - c1*c1/k)/(k-1)) clipped at 0 (0 at k = 1).
    c1*c1, not c1**2: numpy squares a 0-d scalar and an array element differently.

    Both sums are one prefix sum over complex values z + i z^2: a complex add adds
    the real and the imaginary parts apart, so each part has the bits of its own
    real cumsum, and the two independent chains of adds run side by side. It runs in
    place: a fresh 16 bytes per k would cost page faults at k = 4e4.
    """
    top = _top(zhat, kmax)
    s = np.empty(kmax, np.complex128)
    s.real = top
    np.multiply(top, top, out=s.imag)
    np.cumsum(s, out=s)
    c1, c2 = s.real[idx], s.imag[idx]
    return c1 / ks, np.sqrt(np.maximum((c2 - c1 * c1 / ks) / np.maximum(ks - 1.0, 1.0), 0.0))


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
    ``x`` must be 1-d and finite.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1 or not np.all(np.isfinite(x)):
        raise ValueError("x must be a 1-d array of finite values")
    idx, denom = _quantile_terms(len(x), s)
    gamma_tilde = x[idx] / denom
    return float(gamma_tilde) if idx.ndim == 0 else gamma_tilde


def h_function(s: float) -> float:
    """Variance multiplier h(s) = s / ((1-s) log(1-s)^2) of the quantile estimator."""
    s = _unit(s, "s")
    return s / ((1.0 - s) * math.log1p(-s) ** 2)


def h_minimizer() -> tuple[float, float]:
    """Locate the unique minimum of h: the root of log(1/(1-s)) = 2s in (0, 1).

    Newton steps from s = 0.8 on -log1p(-s) - 2s give the root correctly
    rounded, s0 = 0.79681213002002; returns (s0, h(s0)).
    """
    s0 = 0.8
    for _ in range(6):  # quadratic from 3e-3 off; from the fifth on, a step is 0
        s0 -= (-math.log1p(-s0) - 2.0 * s0) / (1.0 / (1.0 - s0) - 2.0)
    return s0, h_function(s0)


def spacing_sigma(h: HeavySample, k):
    """Empirical standard deviation (1/(k-1) divisor) of the top-k scaled
    log-spacings, the same k that hill averages.

    ``k`` is an int >= 2 (a float is returned) or a nonempty 1-d integer array
    of them; like hill, a grid costs one pass and each entry equals the scalar call.
    """
    ks, kmax = _check_k(h.n, k, minimum=2)
    _, sigma = _hill_sigma(h.zhat, ks - 1, ks, kmax)
    return float(sigma) if ks.ndim == 0 else sigma


def ml_uniform(h: HeavySample, k: int) -> float:
    """ML estimate of gamma under uniform(0, 2*gamma) spacings:
    half the maximum of the top-k scaled log-spacings.
    """
    ks, _ = _check_k(h.n, k)
    if ks.ndim:  # the slice below needs one k
        raise ValueError(f"k must be an integer, got {k!r}")
    return 0.5 * float(np.max(_top(h.zhat, int(ks))))


def half_width(scale, m, eps: float):
    """Normal-limit interval half-width scale * x_eps / sqrt(m), with
    x_eps = Phi^-1(1 - eps/2); elementwise over array scale and m.

    Every scale must be finite and at least 0 and every m at least 1, else ValueError.
    """
    eps = _unit(eps, "eps")
    scale_arr = np.asarray(scale, dtype=np.float64)
    if not np.all(np.isfinite(scale_arr) & (scale_arr >= 0.0)):
        raise ValueError("scale must be finite and at least 0")
    if not np.all(np.asarray(m) >= 1):
        raise ValueError("m must be at least 1")
    return scale * _ndtri(1.0 - eps / 2.0) / np.sqrt(m)
