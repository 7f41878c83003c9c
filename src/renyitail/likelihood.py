"""Joint densities of the spacing construction and conditional likelihoods.

Everything is evaluated in log space; the ordered block of a heavy sample
has conditional density k! prod g(zhat_j) / w_j given the order statistic
below the block, which is what parametric spacing families are fitted
against.  Only absolutely continuous spacing laws are admitted.
"""

from __future__ import annotations

import math

import numpy as np

from .estimators import hill, ml_uniform
from .rand_models import DistributionSpec
from .renyi import HeavySample, _descending

__all__ = [
    "DensityModel",
    "ordered_density",
    "permuted_density",
    "conditional_log_likelihood",
    "ml_fit",
]

_CONTINUOUS_SPACINGS = ("exp", "unif", "gamma")


class DensityModel:
    """Pointwise-evaluable spacing density g for exp, unif, or gamma laws."""

    def __init__(self, spec: DistributionSpec):
        if spec.kind not in _CONTINUOUS_SPACINGS:
            raise ValueError(
                f"{spec.kind!r} is not an absolutely continuous spacing law"
            )
        self.spec = spec

    def log_density(self, x):
        """log g(x), -inf off the support, ValueError at NaN; scalar in, scalar out."""
        scalar = np.isscalar(x)
        x = np.atleast_1d(np.asarray(x, dtype=np.float64))
        if np.isnan(x).any():
            raise ValueError("x must not be NaN")
        g = self.spec.gamma
        out = np.full(x.shape, -np.inf)
        if self.spec.kind == "exp":
            ok = x >= 0.0
            out[ok] = -math.log(g) - x[ok] / g
        elif self.spec.kind == "unif":
            # closed right endpoint so the boundary ML point has finite likelihood
            ok = (x > 0.0) & (x <= 2.0 * g)
            out[ok] = -math.log(2.0 * g)
        else:
            r = self.spec.r
            rate = r / g
            ok = x > 0.0
            out[ok] = r * math.log(rate) + (r - 1.0) * np.log(x[ok]) - rate * x[ok] \
                - math.lgamma(r)
        return float(out[0]) if scalar else out


def _ordered_log_density(model: DensityModel, n: int, y: np.ndarray) -> float:
    k = len(y)
    if k < 1 or k > n:
        raise ValueError("need 1 <= k <= n ordered points")
    if np.any(np.isnan(y)) or np.any(y < 0.0):
        raise ValueError("ordered points must be nonnegative reals")
    diffs = np.diff(np.concatenate(([0.0], y)))
    if np.any(diffs <= 0.0):
        return -math.inf  # off the ordered cone
    coef = np.arange(n, n - k, -1).astype(np.float64)
    return float(np.sum(np.log(coef) + model.log_density(coef * diffs)))


def ordered_density(model: DensityModel, n: int, y, log: bool = False) -> float:
    """Joint density of the k lowest ordered values x_1 < ... < x_k,

    p(y) = prod_{j=1..k} (n-j+1) g((n-j+1)(y_j - y_{j-1})), y_0 = 0;
    zero off the ordered cone.
    """
    val = _ordered_log_density(model, n, np.asarray(y, dtype=np.float64))
    return val if log else math.exp(val)


def permuted_density(model: DensityModel, y, log: bool = False) -> float:
    """Joint density of the randomly reordered coordinates,

    h(y) = prod_{j=1..n} g((n-j+1)(y_(j) - y_(j-1))) over the sorted values,
    with no ordering prefactors; zero when any coordinate is negative.
    """
    y = np.asarray(y, dtype=np.float64)
    if y.ndim != 1 or len(y) < 1:
        raise ValueError("y must be a nonempty 1-d sequence")
    if np.any(np.isnan(y)):
        raise ValueError("y must be real")
    if np.any(y < 0.0):
        return -math.inf if log else 0.0
    n = len(y)
    s = np.sort(y)
    diffs = np.diff(np.concatenate(([0.0], s)))
    val = float(np.sum(model.log_density(_descending(n) * diffs)))
    return val if log else math.exp(val)


def conditional_log_likelihood(model: DensityModel, w, n: int) -> float:
    """Log conditional density of the top-k block (w_{n-k+1}, ..., w_n) given
    w_{n-k}:

        log k! + sum_{j=n-k+1..n} [log g((n-j+1)(log w_j - log w_{j-1})) - log w_j].

    ``w`` holds the k+1 values w_{n-k} .. w_n; spacings outside g's support
    give -inf rather than an error.
    """
    w = np.asarray(w, dtype=np.float64)
    if w.ndim != 1 or len(w) < 2:
        raise ValueError("w must hold the conditioning value plus at least one point")
    k = len(w) - 1
    if k > n:
        raise ValueError("block longer than the sample")
    if np.any(w <= 0.0) or np.any(np.diff(w) < 0.0):
        raise ValueError("w must be positive and nondecreasing")
    logw = np.log(w)
    coef = _descending(k)  # n-j+1 for j = n-k+1..n
    zhat = coef * np.diff(logw)
    return float(math.lgamma(k + 1) + np.sum(model.log_density(zhat)) - np.sum(logw[1:]))


def ml_fit(model_family: str, w: HeavySample, k: int, r: float | None = None) -> float:
    """Maximum-likelihood gamma for a parametric spacing family on the top-k
    block: exponential and fixed-shape gamma reduce to the Hill estimator,
    uniform to half the largest spacing.
    """
    if model_family == "gamma" and (r is None or not r > 0):
        raise ValueError("gamma family needs a positive shape r")
    if model_family in ("exponential", "gamma"):
        return hill(w, k)
    if model_family == "uniform":
        return ml_uniform(w, k)
    raise ValueError(f"unknown model family {model_family!r}")
