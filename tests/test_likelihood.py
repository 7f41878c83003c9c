"""Densities of the construction and likelihood-based fitting."""

import math
import tracemalloc

import numpy as np
import pytest
from scipy import integrate

from renyitail import estimators as est
from renyitail import likelihood as lk
from renyitail import rand_models as rm
from renyitail.renyi import heavy_sample


def test_density_model_rejects_non_continuous():
    with pytest.raises(ValueError):
        lk.DensityModel(rm.bernoulli(0.5))
    with pytest.raises(ValueError):
        lk.DensityModel(rm.strict_pareto(0.5, 1.0))
    with pytest.raises(ValueError):
        lk.DensityModel(rm.hall_class())


@pytest.mark.parametrize("spec", [rm.exponential(0.5), rm.uniform(0.5),
                                  rm.gamma_law(2.0, 0.5), rm.gamma_law(0.7, 1.3)])
def test_density_normalization(spec):
    model = lk.DensityModel(spec)
    total, _ = integrate.quad(lambda x: math.exp(model.log_density(x)), 0, np.inf, limit=200)
    assert total == pytest.approx(1.0, abs=1e-6)


@pytest.mark.parametrize("spec", [rm.exponential(0.5), rm.uniform(0.5), rm.gamma_law(2.0, 0.5)],
                         ids=str)
def test_log_density_rejects_nan(spec):
    model = lk.DensityModel(spec)
    for bad in (math.nan, np.array([0.3, math.nan])):
        with pytest.raises(ValueError):
            model.log_density(bad)


@pytest.mark.parametrize("spec", [rm.exponential(0.5), rm.uniform(0.5), rm.gamma_law(2.0, 0.5),
                                  rm.gamma_law(0.7, 1.3)], ids=str)
def test_log_density_is_minus_inf_at_infinity(spec):
    # gamma's (r-1) log x - rate x is inf - inf there: +inf lies outside every support
    model = lk.DensityModel(spec)
    assert model.log_density(math.inf) == -math.inf
    assert model.log_density(-math.inf) == -math.inf
    assert np.array_equal(model.log_density(np.array([math.inf, 1.0]))[:1], [-math.inf])


def _reference_ordered_log_density(model, n, y):
    """ordered_density's log as written with its own weights and np.diff."""
    diffs = np.diff(np.concatenate(([0.0], y)))
    if np.any(diffs <= 0.0):
        return -math.inf
    coef = np.arange(n, n - len(y), -1).astype(np.float64)
    return float(np.sum(np.log(coef) + model.log_density(coef * diffs)))


def _reference_permuted_log_density(model, y):
    """permuted_density's log as written with np.diff over the sorted points."""
    diffs = np.diff(np.concatenate(([0.0], np.sort(y))))
    return float(np.sum(model.log_density(np.arange(len(y), 0, -1).astype(np.float64) * diffs)))


@pytest.mark.parametrize("spec", [rm.exponential(0.5), rm.uniform(0.5), rm.gamma_law(2.0, 0.5),
                                  rm.gamma_law(0.7, 1.3)], ids=str)
def test_densities_are_the_scaled_spacing_formulas_bit_for_bit(spec):
    model = lk.DensityModel(spec)
    rng = np.random.default_rng(61)
    finite = 0
    for trial in range(400):
        k = int(rng.integers(1, 9))
        n = k + int(rng.integers(0, 4))
        y = np.round(rng.exponential(0.15, k), 2)  # rounding makes ties
        if trial % 4 != 3:  # one trial in four stays unsorted, mostly off the ordered cone
            y = np.sort(y)
        if trial % 4 == 1:
            y[0] = 0.0  # a zero first value
        if trial % 4 == 2 and k > 1:
            y[-1] = y[-2]  # a tie
        pairs = [(lk.ordered_density(model, n, y, log=True), _reference_ordered_log_density(model, n, y)),
                 (lk.permuted_density(model, y, log=True), _reference_permuted_log_density(model, y))]
        for got, ref in pairs:
            assert np.float64(got).tobytes() == np.float64(ref).tobytes()
            finite += math.isfinite(ref)
        assert lk.ordered_density(model, n, y) == math.exp(pairs[0][1])
        assert lk.permuted_density(model, y) == math.exp(pairs[1][1])
    assert finite >= 200  # most points are inside the support, so the sums are compared


def test_ordered_density_two_exponentials():
    # n = k = 2 with unit-rate exponential spacings: p(y1, y2) = 2 e^{-y1-y2}
    model = lk.DensityModel(rm.exponential(1.0))
    rng = np.random.default_rng(2)
    for _ in range(50):
        y1 = float(rng.random() * 2.0)
        y2 = y1 + float(rng.random() * 2.0) + 1e-6
        val = lk.ordered_density(model, 2, [y1, y2])
        assert val == pytest.approx(2.0 * math.exp(-y1 - y2), rel=1e-12)


def test_ordered_density_off_cone_is_zero():
    model = lk.DensityModel(rm.exponential(1.0))
    assert lk.ordered_density(model, 2, [1.5, 1.0]) == 0.0
    assert lk.ordered_density(model, 3, [0.0, 1.0, 2.0]) == 0.0  # y1 must exceed y0 = 0


def test_ordered_density_marginal_integrates_to_one():
    # n = 3, k = 1: p(y) = 3 g(3y)
    model = lk.DensityModel(rm.exponential(1.0))
    total, _ = integrate.quad(lambda y: lk.ordered_density(model, 3, [y]), 0, np.inf)
    assert total == pytest.approx(1.0, abs=1e-6)
    model_u = lk.DensityModel(rm.uniform(0.5))
    total_u, _ = integrate.quad(lambda y: lk.ordered_density(model_u, 3, [y]), 0, 1.0)
    assert total_u == pytest.approx(1.0, abs=1e-6)


@pytest.mark.parametrize("nk", [(2, 2), (3, 1), (3, 2)])
def test_ordered_density_normalization_over_cone(nk):
    n, k = nk
    model = lk.DensityModel(rm.exponential(1.0))
    if k == 1:
        total, _ = integrate.quad(lambda y: lk.ordered_density(model, n, [y]), 0, np.inf)
    else:
        total, _ = integrate.dblquad(
            lambda y2, y1: lk.ordered_density(model, n, [y1, y2]),
            0, np.inf, lambda y1: y1, lambda y1: np.inf)
    assert total == pytest.approx(1.0, abs=1e-4)


def test_ordered_density_rejects_bad_input():
    model = lk.DensityModel(rm.exponential(1.0))
    with pytest.raises(ValueError):
        lk.ordered_density(model, 2, [np.nan, 1.0])
    with pytest.raises(ValueError):
        lk.ordered_density(model, 2, [-0.5, 1.0])
    with pytest.raises(ValueError):
        lk.ordered_density(model, 2, [0.1, 0.2, 0.3])  # k > n
    for bad in (0.5, [[0.1, 0.2]]):  # not a 1-d sequence
        with pytest.raises(ValueError, match="1-d"):
            lk.ordered_density(model, 2, bad)
    for bad in (math.inf, -math.inf):
        with pytest.raises(ValueError, match="finite"):
            lk.ordered_density(model, 3, [0.1, 0.2, bad])
    with pytest.raises(ValueError, match="n must be an integer"):
        lk.ordered_density(model, 2.5, [0.1])  # n is a coefficient (n-j+1)


def test_ordered_density_takes_k_weights_of_a_large_n():
    # the k Jacobian weights (n-j+1) of n = 1e7 are built alone, not as all n of them
    model = lk.DensityModel(rm.exponential(1.0))
    tracemalloc.start()
    try:
        lk.ordered_density(model, 10**7, [0.1, 0.2])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1e6


def test_permuted_density_rejects_non_finite_points():
    # an infinite point is an input error, as NaN is, not a point of density 0
    model = lk.DensityModel(rm.exponential(1.0))
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="finite"):
            lk.permuted_density(model, [0.1, bad])


def test_permuted_density_single_point():
    model = lk.DensityModel(rm.gamma_law(2.0, 0.5))
    for y in (0.1, 1.0, 3.0):
        assert lk.permuted_density(model, [y]) == pytest.approx(
            math.exp(model.log_density(y)), rel=1e-12)


def test_permuted_density_normalization_two_points():
    model = lk.DensityModel(rm.exponential(1.0))
    total, _ = integrate.dblquad(
        lambda y2, y1: lk.permuted_density(model, [y1, y2]),
        0, np.inf, 0, np.inf)
    assert total == pytest.approx(1.0, abs=1e-4)


def test_permuted_density_permutation_invariance():
    model = lk.DensityModel(rm.uniform(0.5))
    rng = np.random.default_rng(3)
    for _ in range(100):
        y = rng.random(2)
        assert lk.permuted_density(model, y) == pytest.approx(
            lk.permuted_density(model, y[::-1]), rel=1e-12)


def test_permuted_density_negative_coordinate_is_zero():
    model = lk.DensityModel(rm.exponential(1.0))
    assert lk.permuted_density(model, [-0.2, 1.0]) == 0.0


def test_conditional_likelihood_hand_value():
    # k = 1, exponential rate 2, block (w_{n-1}, w_n) = (1, e): density 2 e^{-3}
    model = lk.DensityModel(rm.exponential(0.5))
    val = lk.conditional_log_likelihood(model, [1.0, math.e], 10)
    assert val == pytest.approx(math.log(2.0) - 3.0, rel=1e-12)


def test_conditional_likelihood_off_support():
    model = lk.DensityModel(rm.uniform(0.5))  # spacings live in (0, 1)
    # top spacing = 1 * (log w_n - log w_{n-1}) = 2 > 1: off support
    val = lk.conditional_log_likelihood(model, [1.0, math.exp(2.0)], 10)
    assert val == -math.inf


def test_conditional_likelihood_rejects_bad_ordering():
    model = lk.DensityModel(rm.exponential(0.5))
    with pytest.raises(ValueError):
        lk.conditional_log_likelihood(model, [2.0, 1.0], 10)
    with pytest.raises(ValueError):
        lk.conditional_log_likelihood(model, [-1.0, 1.0], 10)


def test_conditional_likelihood_rejects_infinite_w_and_non_integer_n():
    # an infinite w_n is an input error, not a spacing off the support
    model = lk.DensityModel(rm.exponential(0.5))
    with pytest.raises(ValueError, match="finite"):
        lk.conditional_log_likelihood(model, [1.0, 2.0, math.inf], 5)
    with pytest.raises(ValueError, match="n must be an integer"):
        lk.conditional_log_likelihood(model, [1.0, 2.0], 5.0)


@pytest.mark.parametrize("k", [1, 2])
def test_conditional_likelihood_normalization(k):
    # integrates to 1 over w_{n-k} <= w_{n-k+1} <= ... <= w_n
    model = lk.DensityModel(rm.exponential(0.5))
    n, w_anchor = 5, 1.0
    if k == 1:
        total, _ = integrate.quad(
            lambda w: math.exp(lk.conditional_log_likelihood(model, [w_anchor, w], n)),
            w_anchor, np.inf)
    else:
        total, _ = integrate.dblquad(
            lambda w2, w1: math.exp(
                lk.conditional_log_likelihood(model, [w_anchor, w1, w2], n)),
            w_anchor, np.inf, lambda w1: w1, lambda w1: np.inf)
    assert total == pytest.approx(1.0, abs=1e-4)


def _golden_max_gamma(fn, lo, hi, iters=200):
    phi = (math.sqrt(5.0) - 1.0) / 2.0
    x1 = hi - phi * (hi - lo)
    x2 = lo + phi * (hi - lo)
    f1, f2 = fn(x1), fn(x2)
    for _ in range(iters):
        if f1 < f2:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + phi * (hi - lo)
            f2 = fn(x2)
        else:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - phi * (hi - lo)
            f1 = fn(x1)
    return 0.5 * (lo + hi)


def test_exponential_conditional_argmax_is_hill():
    rng = np.random.default_rng(9)
    n, k = 200, 80
    z = rng.exponential(0.5, n)
    h = heavy_sample(z, 1.0)
    block = np.concatenate([[h.w[n - k - 1]], h.w[n - k:]])

    def loglik(g):
        return lk.conditional_log_likelihood(lk.DensityModel(rm.exponential(g)), block, n)

    gmax = _golden_max_gamma(loglik, 0.05, 3.0)
    assert gmax == pytest.approx(est.hill(h, k), abs=1e-6)


def test_ml_fit_exponential_is_hill():
    rng = np.random.default_rng(10)
    for _ in range(5):
        n = int(rng.integers(20, 300))
        z = rng.exponential(0.4, n)
        h = heavy_sample(z, 1.0)
        k = int(rng.integers(1, n + 1))
        assert lk.ml_fit("exponential", h, k) == est.hill(h, k)


def test_ml_fit_gamma_is_hill():
    rng = np.random.default_rng(11)
    z = rng.gamma(3.0, 0.5 / 3.0, 100)
    h = heavy_sample(z, 1.0)
    assert lk.ml_fit("gamma", h, 40, r=3.0) == est.hill(h, 40)
    for r in (None, math.inf, math.nan, 0.0, -1.0):  # the CLI's rule for --r: 0 < r < inf
        with pytest.raises(ValueError, match="positive shape"):
            lk.ml_fit("gamma", h, 40, r=r)


def test_ml_fit_uniform_hand_value():
    z = np.array([0.3, 0.1, 0.2, 0.8, 0.5])
    h = heavy_sample(z, 1.0)
    assert lk.ml_fit("uniform", h, 3) == pytest.approx(0.4, rel=1e-12)


@pytest.mark.parametrize("family", ["exponential", "uniform"])
def test_ml_fit_rejects_a_shape_for_a_family_without_one(family):
    # the CLI's rule for --r with these families
    h = heavy_sample(np.array([0.3, 0.1, 0.2]), 1.0)
    for r in (2.0, math.nan):
        with pytest.raises(ValueError, match="no shape r"):
            lk.ml_fit(family, h, 2, r=r)


def test_ml_fit_unknown_family():
    z = np.array([0.3, 0.1])
    h = heavy_sample(z, 1.0)
    with pytest.raises(ValueError):
        lk.ml_fit("weibull", h, 2)


@pytest.mark.parametrize("family,spec_of", [
    ("exponential", lambda g: rm.exponential(g)),
    ("gamma", lambda g: rm.gamma_law(3.0, g)),
    ("uniform", lambda g: rm.uniform(g)),
])
def test_ml_fit_beats_gamma_grid(family, spec_of):
    """The fitted gamma maximizes the conditional likelihood over a grid."""
    rng = np.random.default_rng(12)
    n, k = 120, 60
    for trial in range(20):
        g_true = 0.5
        z = rm.draw(spec_of(g_true), rng, n)
        h = heavy_sample(z, 1.0)
        block = np.concatenate([[h.w[n - k - 1]], h.w[n - k:]])
        fitted = lk.ml_fit(family, h, k, r=3.0 if family == "gamma" else None)

        def loglik(g):
            return lk.conditional_log_likelihood(
                lk.DensityModel(spec_of(g)), block, n)

        best = loglik(fitted)
        for g in np.linspace(0.05, 1.5, 200):
            assert loglik(float(g)) <= best + 1e-9
