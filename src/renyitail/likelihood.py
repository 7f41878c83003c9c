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
from .rand_models import DistributionSpec, _index, _real
from .renyi import HeavySample, _descending, _scaled_spacings

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
            ok = (x > 0.0) & (x < math.inf)  # at +inf the log-density is inf - inf
            out[ok] = r * math.log(rate) + (r - 1.0) * np.log(x[ok]) - rate * x[ok] \
                - math.lgamma(r)
        return float(out[0]) if scalar else out


def ordered_density(model: DensityModel, n: int, y, log: bool = False) -> float:
    """Joint density of the k lowest ordered values x_1 < ... < x_k,

    p(y) = prod_{j=1..k} (n-j+1) g((n-j+1)(y_j - y_{j-1})), y_0 = 0;
    zero off the ordered cone.
    """
    n = _index(n, "n")
    y = np.asarray(y, dtype=np.float64)
    if y.ndim != 1 or not 1 <= len(y) <= n:
        raise ValueError("need 1 <= k <= n ordered points in a 1-d sequence")
    if not np.all(np.isfinite(y)) or np.any(y < 0.0):
        raise ValueError("ordered points must be finite and nonnegative")
    zhat = _scaled_spacings(y, n=n)
    jacobian = np.log(_descending(n, len(y)))
    val = -math.inf if np.any(zhat <= 0.0) else float(np.sum(jacobian + model.log_density(zhat)))
    return val if log else math.exp(val)  # 0 off the ordered cone


def permuted_density(model: DensityModel, y, log: bool = False) -> float:
    """Joint density of the randomly reordered coordinates,

    h(y) = prod_{j=1..n} g((n-j+1)(y_(j) - y_(j-1))) over the sorted values,
    with no ordering prefactors; zero when any coordinate is negative.
    """
    y = np.asarray(y, dtype=np.float64)
    if y.ndim != 1 or len(y) < 1:
        raise ValueError("y must be a nonempty 1-d sequence")
    if not np.all(np.isfinite(y)):
        raise ValueError("y must be finite")
    if np.any(y < 0.0):
        return -math.inf if log else 0.0
    val = float(np.sum(model.log_density(_scaled_spacings(np.sort(y)))))
    return val if log else math.exp(val)


def conditional_log_likelihood(model: DensityModel, w, n: int) -> float:
    """Log conditional density of the top-k block (w_{n-k+1}, ..., w_n) given
    w_{n-k}:

        log k! + sum_{j=n-k+1..n} [log g((n-j+1)(log w_j - log w_{j-1})) - log w_j].

    ``w`` holds the k+1 values w_{n-k} .. w_n, finite, positive and
    nondecreasing (else ValueError); spacings outside g's support give -inf
    rather than an error.
    """
    n = _index(n, "n")
    w = np.asarray(w, dtype=np.float64)
    if w.ndim != 1 or len(w) < 2:
        raise ValueError("w must hold the conditioning value plus at least one point")
    # the block is a k-point sample with floor w_{n-k}; its zhat weights are n-j+1
    block = HeavySample(scale_c=float(w[0]), w=w[1:])
    if block.n > n:
        raise ValueError("block longer than the sample")
    return float(math.lgamma(block.n + 1) + np.sum(model.log_density(block.zhat))
                 - np.sum(np.log(block.w)))


def ml_fit(model_family: str, w: HeavySample, k: int, r: float | None = None) -> float:
    """Maximum-likelihood gamma for a parametric spacing family on the top-k
    block: exponential and fixed-shape gamma reduce to the Hill estimator,
    uniform to half the largest spacing.
    """
    if model_family == "gamma":
        _real(r, "r, the gamma family's positive shape,", positive=True)
    if model_family in ("exponential", "uniform") and r is not None:
        raise ValueError(f"{model_family} family has no shape r")
    if model_family in ("exponential", "gamma"):
        return hill(w, k)
    if model_family == "uniform":
        return ml_uniform(w, k)
    raise ValueError(f"unknown model family {model_family!r}")
