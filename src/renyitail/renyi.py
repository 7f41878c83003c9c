"""Order statistics built from scaled iid spacings, and their exact oracles.

The central construction turns iid values z_1..z_n into the nondecreasing
sequence x_k = sum_{j<=k} z_j / (n+1-j); exponentiating and scaling gives a
heavy-tailed sample w_k = C exp(x_k) whose scaled log-spacings recover the
z's exactly.  That inverse, (n+1-k)(x_k - x_{k-1}), belongs to
``_scaled_spacings``; the Monte Carlo figures take it of x and never form w
(``_model_zhat``).  The weights c_l = n+1-l belong to ``_descending(n)``, a
cached read-only float64 array n, n-1, ..., 1, so a replication neither
rebuilds it nor converts it from int.  The oracles at the bottom evaluate
finite-n expectations of reordered coordinates X_{D,n} without simulation:
psi_n as one cumulative product, the moment recursion as one telescoped
cumulative sum per order (O(k_max^2 n) work), the cross moments of two
coordinates by their recursion's closed form.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .rand_models import DistributionSpec, _index, _real, cf, moment

__all__ = [
    "HeavySample",
    "generalized_renyi",
    "heavy_sample",
    "psi_n",
    "moment_recursion",
    "cross_moment_recursion",
]


@functools.lru_cache(maxsize=8)
def _first_weights(n: int, k: int) -> np.ndarray:
    c = np.arange(n, n - k, -1, dtype=np.float64)
    c.flags.writeable = False
    return c


def _descending(n: int, k: int | None = None) -> np.ndarray:
    """c_l = n+1-l for l = 1..k (k = n unless given), i.e. n, n-1, ..., n+1-k, as a
    read-only float64 array.

    Exact below 2^53, so dividing or multiplying by it gives the same bits
    as by the int64 arange it replaces.  All n weights are cached; fewer are
    built uncached in O(k), so k weights of a large n cost no O(n) array.
    """
    if k is None or k == n:
        return _first_weights(n, n)
    return _first_weights.__wrapped__(n, k)


def _scaled_spacings(x: np.ndarray, floor: float = 0.0, n: int | None = None) -> np.ndarray:
    """The inverse of the construction on a checked nonempty float64 x: (n+1-k)(x_k - x_{k-1})
    for k = 1..len(x), x_0 = floor, n = len(x) unless given: the same bits as the
    differences of [floor, x] times _descending(n, len(x)), with no concatenated copy."""
    zhat = np.empty_like(x)
    zhat[0] = x[0] - floor
    np.subtract(x[1:], x[:-1], out=zhat[1:])
    zhat *= _descending(len(x) if n is None else n, len(x))
    return zhat


@dataclass(frozen=True)
class HeavySample:
    """Nondecreasing positive sample w with scale floor C (w_0 := C)."""

    scale_c: float
    w: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "scale_c", _real(self.scale_c, "scale C", positive=True))
        w = np.asarray(self.w, dtype=np.float64)
        if w.ndim != 1 or len(w) < 1:
            raise ValueError("w must be a nonempty 1-d sequence")
        # NaN fails every comparison, and in a nondecreasing w an inf must sit at the end
        if not (w[0] >= self.scale_c and math.isfinite(w[-1]) and np.all(w[1:] >= w[:-1])):
            raise ValueError("w must be finite and nondecreasing with w[0] >= C")
        w = w.view()
        w.flags.writeable = False  # zhat is cached from w
        object.__setattr__(self, "w", w)

    @property
    def n(self) -> int:
        return len(self.w)

    @functools.cached_property
    def zhat(self) -> np.ndarray:
        """Scaled log-spacings zhat_k = (n-k+1)(log w_k - log w_{k-1}), w_0 = C;
        computed on first use, read-only.  heavy_sample(z, C).zhat recovers z
        up to roundoff.
        """
        logw = np.log(np.concatenate(([self.scale_c], self.w)))
        zhat = _scaled_spacings(logw[1:], logw[0])
        zhat.flags.writeable = False
        return zhat


def generalized_renyi(z) -> np.ndarray:
    """x_k = sum_{j<=k} z_j/(n+1-j), by an index-ordered prefix sum."""
    z = np.asarray(z, dtype=np.float64)
    if z.ndim != 1 or len(z) == 0:
        raise ValueError("z must be a nonempty 1-d sequence")
    x = np.cumsum(z / _descending(len(z)))
    if not math.isfinite(x[-1]):  # a NaN or inf in z reaches the last prefix sum
        raise ValueError("z must be finite, with prefix sums that do not overflow")
    return x


def _model_x(z) -> np.ndarray:
    """generalized_renyi(z) for model spacings: nonnegative, so that x is nondecreasing."""
    z = np.asarray(z, dtype=np.float64)
    x = generalized_renyi(z)
    if z.min() < 0:  # z is finite: generalized_renyi checked its last prefix sum
        raise ValueError("model violation: spacings must be nonnegative")
    return x


def _model_zhat(z) -> np.ndarray:
    """heavy_sample(z, C).zhat for any C, as the scaled spacings of x = log(w/C) from
    x_0 = 0: no w is formed, so none can overflow."""
    return _scaled_spacings(_model_x(z))


def heavy_sample(z, scale_c: float) -> HeavySample:
    """w_k = C exp(x_k) from the spacings z; requires nonnegative z so that w is ordered."""
    scale_c = _real(scale_c, "scale C", positive=True)
    x = _model_x(z)
    with np.errstate(over="ignore"):  # reported below, not warned
        w = scale_c * np.exp(x)
    if w[-1] == math.inf:  # w is nondecreasing, so an overflow reaches its end
        raise ValueError(f"C*exp(x_n) overflows float64: C = {scale_c:g}, x_n = {float(x[-1]):g}")
    return HeavySample(scale_c=scale_c, w=w)


def psi_n(spec: DistributionSpec, n: int, t: float) -> complex:
    """Characteristic function of X_{D,n} for a uniformly random index D.

    psi_n(t) = (1/n) sum_{m=1}^n prod_{j=1}^m phi(t/(n+1-j)), as one
    cumulative product of the n factors, multiplied in order of j.  It
    holds all n factors at once: O(n) memory, 16 bytes per factor.
    """
    n, t = _index(n, "n", 1), _real(t, "t")
    return complex(np.cumprod(cf(spec, t / _descending(n))).sum()) / n


def moment_recursion(spec: DistributionSpec, k_max: int, n: int) -> np.ndarray:
    """Exact moments m[k, nu] = E(X_{D,nu}^k) for k <= k_max, nu <= n.

    Recursion in nu, anchored at nu = 1 where X_{D,1} = Z_1 gives
    m_{k,1} = mu_k:

        m_{k,nu} = mu_k/nu^k + ((nu-1)/nu) m_{k,nu-1}
                   + ((nu-1)/nu) sum_{j=1}^{k-1} C(k,j) nu^{-(k-j)} mu_{k-j} m_{j,nu-1}

    Times nu it telescopes: nu m_{k,nu} = (nu-1) m_{k,nu-1} + b_{k,nu}, where
    b_{k,nu} is nu times the mu_k and sum terms, so m_{k,nu} = (mu_k +
    sum_{s=2}^{nu} b_{k,s})/nu.  Each row k is one cumulative sum (of positive
    terms for the spacing laws) over rows j < k: O(k_max^2 n) numpy work.
    Row 0 is the trivial moment 1; column 0 is unused (NaN).
    """
    k_max, n = _index(k_max, "k_max", 1), _index(n, "n", 1)
    mu = [1.0] + [moment(spec, k) for k in range(1, k_max + 1)]
    if any(math.isinf(m) for m in mu):
        raise ValueError(f"moments up to order {k_max} must be finite for {spec}")
    nu = np.arange(1, n + 1, dtype=np.float64)
    m = np.full((k_max + 1, n + 1), np.nan)
    m[0, 1:] = 1.0
    for k in range(1, k_max + 1):
        b = mu[k] * nu ** (1 - k)  # b[0] = mu_k anchors the sum at nu = 1
        for j in range(1, k):
            b[1:] += (nu[1:] - 1.0) * (math.comb(k, j) * mu[k - j]) * nu[1:] ** (j - k) * m[j, 1:n]
        m[k, 1:] = np.cumsum(b) / nu
    return m


def cross_moment_recursion(spec: DistributionSpec, n: int) -> np.ndarray:
    """Exact cross moments C_nu = E(X_{D1,nu} X_{D2,nu}), nu = 2..n, in closed form.

    C_nu = gamma^2 + (sigma^2 - gamma^2)(nu - H_nu)/(nu(nu-1)), H_nu the harmonic
    number, solves C_nu = mu_2/nu^2 + 2 (gamma/nu)(gamma - gamma/nu) + C_{nu-1} (nu-2)/nu
    from C_2 = mu_2/4 + gamma^2/2; the package exports and the benchmark know it by
    that recursion's name.  H_nu is a running sum of 1/nu over blocks of 4096 nu in
    the result, so memory is the result plus one block.  Exp (sigma = gamma) gives
    exactly gamma^2.  Entries 0 and 1 are NaN.
    """
    n = _index(n, "n", 2)
    g, mu2 = moment(spec, 1), moment(spec, 2)
    if math.isinf(mu2):
        raise ValueError(f"second moment must be finite for {spec}")
    d = mu2 - 2.0 * g * g  # sigma^2 - gamma^2
    c = np.full(n + 1, np.nan)
    h = 1.0  # H_1
    for lo in range(2, n + 1, 4096):
        nu = np.arange(lo, min(lo + 4096, n + 1), dtype=np.float64)
        block = c[lo:lo + len(nu)]
        np.divide(1.0, nu, out=block)
        block[0] += h  # H_{lo-1}, carried from the last block
        h = np.cumsum(block, out=block)[-1]
        block[:] = g * g + d * (nu - block) / (nu * (nu - 1.0))
    return c
