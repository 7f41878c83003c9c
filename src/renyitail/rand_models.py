"""Probability laws used across the package.

Two families live here: spacing laws with mean ``gamma`` (exponential,
uniform on (0, 2*gamma), Bernoulli, gamma with shape r and rate r/gamma)
and iid comparison laws for sorted heavy-tailed samples (strict Pareto and
the Hall-class perturbed Pareto, the latter defined only through its
quantile function).

``draw`` samples from a given generator; ``engine``, which builds on this
module, owns the seeded streams and the replication engine.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np
from numpy.random import Generator

from ._special import gammaincinv

__all__ = [
    "DistributionSpec",
    "exponential",
    "uniform",
    "bernoulli",
    "gamma_law",
    "strict_pareto",
    "hall_class",
    "parse_spec",
    "draw",
    "quantile",
    "moment",
    "mgf",
    "cf",
    "support",
]

SPACING_KINDS = ("exp", "unif", "bern", "gamma")
# the parameters each law takes, in the order its canonical text names them
_PARAMS = {"exp": ("gamma",), "unif": ("gamma",), "bern": ("gamma",),
           "gamma": ("r", "gamma"), "pareto": ("gamma", "c"), "hall": ()}

_HALL_GAMMA = 0.5  # tail index 1/2 is built into Q(1-u) = u^{-1/2}(1 + u/2)
_HALL_MEAN = 7.0 / 3.0


@dataclass(frozen=True)
class DistributionSpec:
    """Tagged description of a law: ``kind`` plus its parameters.

    ``gamma`` is the mean for spacing laws and the tail parameter for the
    Pareto-type comparison laws; ``r`` is the gamma-law shape; ``c`` the
    Pareto scale.
    """

    kind: str
    gamma: float | None = None
    r: float | None = None
    c: float | None = None

    def __post_init__(self):
        params = _PARAMS.get(self.kind)
        if params is None:
            raise ValueError(f"unknown distribution kind {self.kind!r}")
        for name in ("gamma", "r", "c"):
            value = getattr(self, name)
            if name in params:
                if value is None:
                    raise ValueError(f"{self.kind}: {name} must be positive and finite, not missing")
                # stored as the Python float _real returns, so 1 and 1.0 give one canonical text
                object.__setattr__(self, name, _real(value, f"{self.kind}: {name}", positive=True))
            elif value is not None and (self.kind, name, value) != ("hall", "gamma", _HALL_GAMMA):
                # hall's gamma is fixed: restating it is allowed, any other value is not
                raise ValueError(f"{self.kind}: unexpected parameter {name}")
        if self.kind == "hall":
            object.__setattr__(self, "gamma", _HALL_GAMMA)
        if self.kind == "bern" and not self.gamma <= 1:
            raise ValueError("bern: gamma must lie in (0, 1]")

    @property
    def is_spacing_law(self) -> bool:
        return self.kind in SPACING_KINDS

    @property
    def mean(self) -> float:
        return moment(self, 1)

    @property
    def variance(self) -> float:
        mu1 = moment(self, 1)
        mu2 = moment(self, 2)
        if math.isinf(mu2):
            return math.inf
        return mu2 - mu1 * mu1

    def canonical(self) -> str:
        """Canonical text form, e.g. ``exp:gamma=0.5``; parse() round-trips it."""
        params = ",".join(f"{name}={getattr(self, name)!r}" for name in _PARAMS[self.kind])
        return f"{self.kind}:{params}" if params else self.kind

    def __str__(self) -> str:
        return self.canonical()


def exponential(gamma: float) -> DistributionSpec:
    return DistributionSpec("exp", gamma=gamma)


def uniform(gamma: float) -> DistributionSpec:
    """Uniform on (0, 2*gamma), so the mean is gamma."""
    return DistributionSpec("unif", gamma=gamma)


def bernoulli(gamma: float) -> DistributionSpec:
    return DistributionSpec("bern", gamma=gamma)


def gamma_law(r: float, gamma: float) -> DistributionSpec:
    """Gamma with shape r and rate r/gamma, so the mean is gamma."""
    return DistributionSpec("gamma", gamma=gamma, r=r)


def strict_pareto(gamma: float, c: float = 1.0) -> DistributionSpec:
    """Strict Pareto: P(X > x) = (c/x)^(1/gamma) for x >= c."""
    return DistributionSpec("pareto", gamma=gamma, c=c)


def hall_class() -> DistributionSpec:
    """Perturbed Pareto with quantile Q(1-u) = u^(-1/2) (1 + u/2)."""
    return DistributionSpec("hall")


def parse_spec(text: str) -> DistributionSpec:
    """Parse the canonical text form (case-insensitive, unknown keys rejected)."""
    body = text.strip().lower()
    if not body:
        raise ValueError("empty distribution spec")
    kind, _, params = body.partition(":")
    kwargs: dict[str, float] = {}
    if params:
        for item in params.split(","):
            key, sep, value = item.partition("=")
            key = key.strip()
            if not sep or key not in ("gamma", "r", "c"):
                raise ValueError(f"bad parameter {item!r} in spec {text!r}")
            if key in kwargs:
                raise ValueError(f"duplicate parameter {key!r} in spec {text!r}")
            try:
                kwargs[key] = float(value)
            except ValueError:
                raise ValueError(f"bad numeric value in {item!r}") from None
    return DistributionSpec(kind, **kwargs)


def _index(value, name: str, minimum: int | None = None) -> int:
    """value as an int, or ValueError if it is not one or is below ``minimum``.

    int() would truncate 7.5 to 7, and a bool is not a count; operator.index
    already refuses a numpy bool.
    """
    if type(value) is bool:
        raise ValueError(f"{name} must be an integer")
    try:
        value = operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer") from None
    if minimum is not None and value < minimum:
        raise ValueError(f"{name} must be at least {minimum}")
    return value


def _real(value, name: str, positive: bool = False) -> float:
    """value as a finite Python float, above 0 if ``positive``, or ValueError: an int
    or float, numpy ones included, is a real number; a bool is not, nor a str that
    float() would parse."""
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
        raise ValueError(f"{name} must be a real number")
    try:
        value = float(value)
    except OverflowError:  # a Python int beyond the float range
        value = math.inf
    if positive and not 0.0 < value < math.inf:  # NaN fails it too
        raise ValueError(f"{name} must be positive and finite")
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, not {'NaN' if math.isnan(value) else value}")
    return value


def _unit(value, name: str) -> float:
    """value as a Python float in the open interval (0, 1), or ValueError, by _real's rule."""
    value = _real(value, name)
    if not 0.0 < value < 1.0:
        raise ValueError(f"{name} must lie in (0, 1)")
    return value


def draw(spec: DistributionSpec, rng: Generator, count: int) -> np.ndarray:
    """Draw ``count`` iid values from an already-open stream."""
    # not _index: draw runs once per replication, where its cost would show
    if count <= 0:
        raise ValueError("count must be positive")
    g = spec.gamma
    if spec.kind == "exp":
        return rng.exponential(scale=g, size=count)
    if spec.kind == "unif":
        return rng.random(count) * (2.0 * g)
    if spec.kind == "bern":
        return (rng.random(count) < g).astype(np.float64)
    if spec.kind == "gamma":
        return rng.standard_gamma(spec.r, size=count) * (g / spec.r)
    # Pareto-type laws sample by inverse transform; 1 - random() lies in (0, 1].
    u = 1.0 - rng.random(count)
    if spec.kind == "pareto":
        return spec.c * u ** (-g)
    return u ** (-0.5) * (1.0 + 0.5 * u)  # hall


def quantile(spec: DistributionSpec, u):
    """Left-continuous generalized inverse of the CDF at u in (0, 1).

    Accepts a scalar or an array; the Bernoulli case is the 0/1 step, and
    the gamma law inverts the regularized incomplete gamma, ``_special.gammaincinv``.
    """
    arr = np.asarray(u, dtype=np.float64)
    if not np.all((arr > 0.0) & (arr < 1.0)):  # NaN fails both comparisons
        raise ValueError("quantile argument must lie in (0, 1)")
    g = spec.gamma
    if spec.kind == "exp":
        out = -g * np.log1p(-arr)
    elif spec.kind == "unif":
        out = 2.0 * g * arr
    elif spec.kind == "bern":
        out = np.where(arr <= 1.0 - g, 0.0, 1.0)
    elif spec.kind == "gamma":
        out = np.vectorize(gammaincinv, otypes=[float])(spec.r, arr) * (g / spec.r)
    elif spec.kind == "pareto":
        out = spec.c * (1.0 - arr) ** (-g)
    else:  # hall
        v = 1.0 - arr
        out = v ** (-0.5) * (1.0 + 0.5 * v)
    return float(out) if np.isscalar(u) else out


def moment(spec: DistributionSpec, k: int) -> float:
    """Exact k-th raw moment; returns math.inf when the moment diverges."""
    k = _index(k, "moment order", 1)
    g = spec.gamma
    if spec.kind == "exp":
        return math.factorial(k) * g**k
    if spec.kind == "unif":
        return (2.0 * g) ** k / (k + 1)
    if spec.kind == "bern":
        return g
    if spec.kind == "gamma":
        r = spec.r
        # prod_{i=0}^{k-1} (r + i) / (r/g) each step
        out = 1.0
        for i in range(k):
            out *= (r + i) * (g / r)
        return out
    if spec.kind == "pareto":
        if k * g >= 1.0:
            return math.inf
        return spec.c**k / (1.0 - k * g)
    # hall: E X = int_0^1 u^{-1/2} (1 + u/2) du = 2 + 1/3; higher moments diverge
    return _HALL_MEAN if k == 1 else math.inf


_LOG_DBL_MAX = math.log(np.finfo(float).max)


def mgf(spec: DistributionSpec, t: float) -> float:
    """Moment generating function M(t); math.inf where M diverges, ValueError at NaN."""
    if math.isnan(t):
        raise ValueError("t must not be NaN")
    g = spec.gamma
    if spec.kind == "exp":
        return 1.0 / (1.0 - g * t) if t < 1.0 / g else math.inf
    if spec.kind == "unif":
        a = 2.0 * g * t
        if a > _LOG_DBL_MAX:  # expm1(a) overflows
            return math.inf
        return float(np.expm1(a) / a) if a != 0.0 else 1.0
    if spec.kind == "bern":
        if t > 709.0:  # exp overflow: M is finite but not representable
            return math.inf
        return 1.0 - g + g * math.exp(t)
    if spec.kind == "gamma":
        r = spec.r
        return (1.0 - g * t / r) ** (-r) if t < r / g else math.inf
    if t > 0.0:
        return math.inf  # pareto/hall have no exponential moments
    if t == 0.0:
        return 1.0
    raise NotImplementedError(f"mgf of {spec.kind!r} has no closed form for t < 0")


def cf(spec: DistributionSpec, t):
    """E exp(itZ) for the four spacing laws, t a finite scalar or array (else
    ValueError); uniform as e^{ia/2} sinc(a/2) with a = 2 gamma t, which does
    not cancel near a = 0."""
    arr = np.asarray(t, dtype=np.float64)
    if not np.isfinite(arr).all():
        raise ValueError("t must be finite")
    g = spec.gamma
    if spec.kind == "exp":
        out = 1.0 / (1.0 - 1j * g * arr)
    elif spec.kind == "unif":
        a = 2.0 * g * arr
        out = np.exp(0.5j * a) * np.sinc(a / (2.0 * np.pi))
    elif spec.kind == "bern":
        out = (1.0 - g) + g * np.exp(1j * arr)
    elif spec.kind == "gamma":
        out = (1.0 - 1j * g * arr / spec.r) ** (-spec.r)
    else:
        raise NotImplementedError(f"characteristic function of {spec.kind!r} not implemented")
    return complex(out) if np.isscalar(t) else out


def support(spec: DistributionSpec) -> tuple[float, float]:
    """Closed convex hull of the support."""
    g = spec.gamma
    if spec.kind in ("exp", "gamma"):
        return (0.0, math.inf)
    if spec.kind == "unif":
        return (0.0, 2.0 * g)
    if spec.kind == "bern":
        return (0.0, 1.0)
    if spec.kind == "pareto":
        return (spec.c, math.inf)
    return (1.5, math.inf)  # hall: Q at u -> 1

