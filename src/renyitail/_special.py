"""The package's special functions, on the math module alone: ``_ndtri``,
``log_gammaincc``, its companion ``gammaincinv`` (the inverse of P(a, x)) and
the Kolmogorov constant.  The bottom of the layering: it imports no package module.
"""

from __future__ import annotations

import math

# the 1% point of the limiting Kolmogorov law, scipy.stats.kstwobign.isf(0.01)
KS_CRITICAL_1PCT = 1.6276236115189504


def _log_pq(a: float, x: float) -> tuple[float, float, float]:
    """(log of the prefactor e^-x x^a / Gamma(a), log P(a, x), log Q(a, x))
    for a > 0 and 0 < x < inf: Q from the continued fraction for x > a+1, P
    from the series otherwise, and the other as the complement."""
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
        log_q = log_prefactor + math.log(f)
        return log_prefactor, math.log1p(-math.exp(log_q)), log_q
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
    return log_prefactor, log_p, -math.inf if log_p >= 0.0 else math.log1p(-math.exp(log_p))


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
    return _log_pq(a, x)[2]


def gammaincinv(a: float, p: float) -> float:
    """The x with P(a, x) = p, for a > 0 and p in (0, 1); 0 where x underflows.

    Newton steps on log P against y = log x, of slope exp(log prefactor - log P).
    log P is concave in y (the log of a gamma variable has a log-concave
    density), and the start e^y = (p Gamma(a+1))^(1/a) is at or below the root,
    as P(a, x) <= x^a / Gamma(a+1): so the steps climb and never overshoot.
    """
    log_p = math.log(p)
    y = (log_p + math.lgamma(a + 1.0)) / a
    for _ in range(100):
        x = math.exp(y)
        if x == 0.0:
            return 0.0
        log_prefactor, log_px, _ = _log_pq(a, x)
        step = (log_p - log_px) * math.exp(log_px - log_prefactor)
        if step <= 4e-16 * max(1.0, abs(y)):  # the climb is done, up to rounding
            return x
        y += step
    raise ValueError(f"Newton steps did not converge at a = {a!r}, p = {p!r}")


# Cephes ndtri (S. L. Moshier), as vendored in scipy's xsf library: the same
# coefficients, Horner loops and operation order, so _ndtri(y) equals
# scipy.special.ndtri(y) bit for bit (tests/test_estimators.py pins this).
_S2PI = 2.50662827463100050242E0  # sqrt(2 pi)
_EXPM2 = 0.13533528323661269189  # exp(-2)
# central branch, |y - 1/2| <= 1/2 - exp(-2)
_P0 = (-5.99633501014107895267E1, 9.80010754185999661536E1, -5.66762857469070293439E1,
       1.39312609387279679503E1, -1.23916583867381258016E0)
_Q0 = (1.95448858338141759834E0, 4.67627912898881538453E0, 8.63602421390890590575E1,
       -2.25462687854119370527E2, 2.00260212380060660359E2, -8.20372256168333339912E1,
       1.59056225126211695515E1, -1.18331621121330003142E0)
# tails with x = sqrt(-2 log y) in [2, 8)
_P1 = (4.05544892305962419923E0, 3.15251094599893866154E1, 5.71628192246421288162E1,
       4.40805073893200834700E1, 1.46849561928858024014E1, 2.18663306850790267539E0,
       -1.40256079171354495875E-1, -3.50424626827848203418E-2, -8.57456785154685413611E-4)
_Q1 = (1.57799883256466749731E1, 4.53907635128879210584E1, 4.13172038254672030440E1,
       1.50425385692907503408E1, 2.50464946208309415979E0, -1.42182922854787788574E-1,
       -3.80806407691578277194E-2, -9.33259480895457427372E-4)
# far tails, x >= 8
_P2 = (3.23774891776946035970E0, 6.91522889068984211695E0, 3.93881025292474443415E0,
       1.33303460815807542389E0, 2.01485389549179081538E-1, 1.23716634817820021358E-2,
       3.01581553508235416007E-4, 2.65806974686737550832E-6, 6.23974539184983293730E-9)
_Q2 = (6.02427039364742014255E0, 3.67983563856160859403E0, 1.37702099489081330271E0,
       2.16236993594496635890E-1, 1.34204006088543189037E-2, 3.28014464682127739104E-4,
       2.89247864745380683936E-6, 6.79019408009981274425E-9)


def _polevl(x: float, c: tuple) -> float:
    """c[0] x^N + c[1] x^(N-1) + ... + c[N], by Horner's rule."""
    a = c[0]
    for ci in c[1:]:
        a = a * x + ci
    return a


def _p1evl(x: float, c: tuple) -> float:
    """x^N + c[0] x^(N-1) + ... + c[N-1]: _polevl with a leading coefficient 1."""
    a = x + c[0]
    for ci in c[1:]:
        a = a * x + ci
    return a


def _ndtri(y0: float) -> float:
    """Phi^-1(y0), the standard normal quantile, for y0 in [0, 1] (-inf at 0, inf at 1).

    A port of Cephes' ``ndtri.c`` (S. L. Moshier) as scipy's xsf library
    ships it: a rational approximation in y - 1/2 for the central range,
    and two in 1/x, x = sqrt(-2 log y), for the tails.
    """
    if y0 == 0.0:
        return -math.inf
    if y0 == 1.0:
        return math.inf
    lower, y = True, y0
    if y > 1.0 - _EXPM2:
        y, lower = 1.0 - y, False
    if y > _EXPM2:
        y = y - 0.5
        y2 = y * y
        return (y + y * (y2 * _polevl(y2, _P0) / _p1evl(y2, _Q0))) * _S2PI
    x = math.sqrt(-2.0 * math.log(y))
    x0 = x - math.log(x) / x
    z = 1.0 / x
    if x < 8.0:
        x1 = z * _polevl(z, _P1) / _p1evl(z, _Q1)
    else:
        x1 = z * _polevl(z, _P2) / _p1evl(z, _Q2)
    return -(x0 - x1) if lower else x0 - x1
