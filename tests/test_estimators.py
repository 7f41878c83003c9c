"""Tail-index estimators, their sampling laws, and interval arithmetic."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import special

from renyitail import estimators as est
from renyitail import rand_models as rm
from renyitail.experiments import default_s_grid
from renyitail.renyi import HeavySample, heavy_sample


def _heavy(w, c=1.0):
    return HeavySample(scale_c=c, w=np.asarray(w, dtype=np.float64))


def test_hill_hand_value():
    h = _heavy([1.0, 2.0, 4.0, 8.0])
    expected = 1.5 * math.log(2.0)
    assert est.hill(h, 2) == pytest.approx(expected, rel=1e-12)
    # log-average form: mean of top-k logs minus the anchor log
    log_avg = 0.5 * (math.log(8.0) + math.log(4.0)) - math.log(2.0)
    assert est.hill(h, 2) == pytest.approx(log_avg, rel=1e-12)


def test_hill_constant_sample_is_zero():
    h = _heavy(np.full(10, 3.0), c=3.0)
    for k in (1, 5, 10):
        assert est.hill(h, k) == 0.0


def test_hill_spacing_equals_log_average_form():
    rng = np.random.default_rng(17)
    for _ in range(25):
        n = int(rng.integers(2, 400))
        c = float(rng.random() + 0.1)
        z = rng.random(n) * 5.0
        h = heavy_sample(z, c)
        k = int(rng.integers(1, n + 1))
        spacing_form = est.hill(h, k)
        anchor = math.log(c) if k == h.n else math.log(h.w[h.n - k - 1])
        log_avg = float(np.mean(np.log(h.w[h.n - k:]))) - anchor
        assert spacing_form == pytest.approx(log_avg, rel=1e-10, abs=1e-12)


def test_hill_scale_invariance():
    rng = np.random.default_rng(18)
    z = rng.random(50)
    h = heavy_sample(z, 1.0)
    for scale in (0.25, 3.0, 1e6):
        hs = HeavySample(scale_c=scale * h.scale_c, w=scale * h.w)
        for k in (1, 20, 50):
            assert est.hill(hs, k) == pytest.approx(est.hill(h, k), rel=1e-12)


def test_hill_equals_mean_of_top_spacings_sample_by_sample():
    rng = np.random.default_rng(19)
    z = rng.exponential(0.5, 300)
    h = heavy_sample(z, 2.0)
    for k in (1, 7, 150, 300):
        assert est.hill(h, k) == pytest.approx(float(np.mean(z[300 - k:])), rel=1e-10)


def test_hill_k_domain():
    h = _heavy([1.0, 2.0])
    with pytest.raises(ValueError):
        est.hill(h, 0)
    with pytest.raises(ValueError):
        est.hill(h, 3)
    for bad in (np.array([1, 3]), np.array([1.0, 2.0]), np.array([[1, 2]]), np.array([], int)):
        with pytest.raises(ValueError):
            est.hill(h, bad)


def test_hill_unbiased_at_full_sample():
    # hill(n) is the mean of n iid spacings, so its expectation is gamma
    n, reps, g = 5000, 10**4, 0.5
    rng = np.random.default_rng(41)
    means = rng.exponential(g, (reps, n)).mean(axis=1)
    assert abs(means.mean() - g) <= 0.003


@pytest.mark.parametrize("law", ["unif", "exp"])
def test_hill_clt(law):
    # sqrt(k)(hill - gamma)/sigma is asymptotically standard normal
    n = k = 2000
    reps, g = 10**4, 0.5
    rng = np.random.default_rng(43)
    if law == "unif":
        z = rng.random((reps, k))
        sigma = math.sqrt(1.0 / 12.0)
    else:
        z = rng.exponential(g, (reps, k))
        sigma = g
    vals = np.sort((z.mean(axis=1) - g) * math.sqrt(k) / sigma)
    f = special.ndtr(vals)
    i = np.arange(1, reps + 1)
    ks = max(np.max(i / reps - f), np.max(f - (i - 1) / reps))
    assert ks < 1.63 / math.sqrt(reps)


def test_hill_trajectory_matches_pointwise():
    rng = np.random.default_rng(44)
    h = heavy_sample(rng.random(60), 1.0)
    traj = est.hill_trajectory(h)
    for k in (1, 2, 30, 60):
        assert traj[k - 1] == pytest.approx(est.hill(h, k), rel=1e-12)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(z=st.lists(st.floats(0.0, 100.0), min_size=2, max_size=300),
       c=st.floats(0.01, 100.0), data=st.data())
def test_k_grid_equals_scalar_calls_bit_for_bit(z, c, data):
    h = heavy_sample(z, c)
    ks = np.array(data.draw(st.lists(st.integers(1, h.n), min_size=1, max_size=20)))
    assert np.array_equal(est.hill(h, ks), [est.hill(h, int(k)) for k in ks])
    ks = np.array(data.draw(st.lists(st.integers(2, h.n), min_size=1, max_size=20)))
    assert np.array_equal(est.spacing_sigma(h, ks), [est.spacing_sigma(h, int(k)) for k in ks])


def test_spacing_sigma_scalar_equals_grid_regression():
    # c1**2 on a 0-d numpy scalar rounded differently from the same square in an array
    h = heavy_sample([6.0, 5.1, 0.9, 1.3], 1.0)
    assert est.spacing_sigma(h, 3) == est.spacing_sigma(h, np.array([3]))[0] == 2.7221315177632386


def test_quantile_estimator_hand_value():
    x = np.array([0.1, math.log(2.0), 1.0, 2.0])
    assert est.quantile_estimator(x, 0.5) == pytest.approx(1.0, rel=1e-12)
    assert type(est.quantile_estimator(x, 0.5)) is float


def test_quantile_estimator_zero_sample():
    assert est.quantile_estimator(np.zeros(4), 0.3) == 0.0


def test_quantile_estimator_domain():
    x = np.zeros(4)
    for bad in (0.0, 1.0, -0.1, math.nan, np.array([0.5, 1.0]), np.array([[0.5]]),
                np.array([])):
        with pytest.raises(ValueError):
            est.quantile_estimator(x, bad)


def _ceil_index_reference(n, s):
    """The scalar rule: ceil(n*s), snapped to the nearest integer within 1e-9."""
    ns = n * s
    nearest = round(ns)
    return nearest if abs(ns - nearest) < 1e-9 else math.ceil(ns)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(x=st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=300).map(sorted),
       grid=st.lists(st.floats(1e-6, 1.0, exclude_max=True), min_size=1, max_size=20))
@example(x=np.cumsum(np.full(1000, 0.001)).tolist(), grid=list(default_s_grid()))
def test_quantile_grid_equals_scalar_calls_bit_for_bit(x, grid):
    x = np.array(x)
    grid = np.array(grid)
    values = est.quantile_estimator(x, grid)
    for s, value in zip(grid.tolist(), values):
        scalar = est.quantile_estimator(x, s)
        assert value == scalar == x[_ceil_index_reference(len(x), s) - 1] / -np.log1p(-s)


def test_ceil_index_grid_guard():
    # n*s within 1e-9 of an integer snaps to it
    assert est._ceil_index(1000, 0.797) == 797
    assert est._ceil_index(1000, 0.2) == 200
    assert est._ceil_index(10, 0.55) == 6
    assert est._ceil_index(3, 1.0 / 3.0) == 1


def test_quantile_estimator_consistency():
    n, reps, g, s = 1000, 10**4, 0.5, 0.797
    rng = np.random.default_rng(45)
    w = 1.0 / np.arange(n, 0, -1)
    idx = est._ceil_index(n, s) - 1
    vals = np.cumsum(rng.random((reps, n)) * w, axis=1)[:, idx] / (-math.log1p(-s))
    assert abs(vals.mean() - g) <= 0.01


def test_quantile_estimator_variance_matches_h():
    # empirical variance of sqrt(n)(gt - gamma)/sigma is h(s) within 7%
    n, reps, g = 1000, 10**4, 0.5
    rng = np.random.default_rng(46)
    w = 1.0 / np.arange(n, 0, -1)
    x = np.cumsum(rng.random((reps, n)) * w, axis=1)
    sigma = math.sqrt(1.0 / 12.0)
    for s in (0.5, 0.797, 0.95):
        gt = x[:, est._ceil_index(n, s) - 1] / (-math.log1p(-s))
        v = np.var(math.sqrt(n) * (gt - g) / sigma, ddof=1)
        assert abs(v - est.h_function(s)) <= 0.07 * est.h_function(s)


def test_h_function_hand_value():
    assert est.h_function(0.5) == pytest.approx(1.0 / math.log(2.0) ** 2, rel=1e-12)


def test_h_minimizer_location():
    s0, h0 = est.h_minimizer()
    assert abs(s0 - 0.797) <= 1e-3
    assert abs(h0 - 1.544) <= 1e-3
    # the root solves log(1/(1-s)) = 2s
    assert -math.log1p(-s0) == pytest.approx(2.0 * s0, abs=1e-9)


def test_h_divergence_near_one():
    s0, h0 = est.h_minimizer()
    assert est.h_function(0.999) > est.h_function(0.99) > h0


def test_spacing_sigma_constant_is_zero():
    h = _heavy(np.full(10, 2.0), c=2.0)
    assert est.spacing_sigma(h, 10) == 0.0


def test_spacing_sigma_needs_two():
    h = _heavy([1.0, 2.0])
    with pytest.raises(ValueError):
        est.spacing_sigma(h, 1)


@pytest.mark.parametrize("law,sd", [("exp", 0.5), ("bern", 0.5)])
def test_spacing_sigma_consistency(law, sd):
    n, g = 5000, 0.5
    rng = np.random.default_rng(47)
    z = rng.exponential(g, n) if law == "exp" else (rng.random(n) < g).astype(float)
    h = heavy_sample(z, 1.0)
    assert abs(est.spacing_sigma(h, n) - sd) <= 0.02


# k >= 20: the one-pass variance loses all digits when the first k spacings are
# (nearly) equal, which for bern at k = 20 has probability 2^-19.
@settings(derandomize=True, max_examples=100, deadline=None)
@given(law=st.sampled_from(["exp", "bern", "gamma"]), seed=st.integers(0, 2**32 - 1),
       n=st.integers(20, 3000), data=st.data())
def test_spacing_sigma_matches_two_pass_std(law, seed, n, data):
    rng = np.random.default_rng(seed)
    if law == "exp":
        z = rng.exponential(0.5, n)
    elif law == "bern":
        z = (rng.random(n) < 0.5).astype(float)
    else:
        z = rng.gamma(2.0, 0.25, n)
    h = heavy_sample(z, 1.0)
    k = data.draw(st.integers(20, n))
    zhat = h.zhat[:k]
    assert est.spacing_sigma(h, k) == pytest.approx(np.std(zhat, ddof=1), rel=1e-12)


def test_ci_spacing_hand_value():
    # sigma_hat = 0.5 at k = 100: 0.5 * ndtri(0.95) / 10
    half = est.half_width(0.5, 100, 0.1)
    assert half == pytest.approx(0.08224, abs=5e-6)
    assert 0.5 - half == pytest.approx(0.41776, abs=5e-6)
    assert 0.5 + half == pytest.approx(0.58224, abs=5e-6)


def test_ci_zero_sigma_zero_width():
    half = est.half_width(0.0, 100, 0.1)
    assert 0.5 - half == 0.5 + half == 0.5


def test_ci_hill_self_matches_when_sigma_equals_gamma():
    # the self interval is the spacing interval with gamma_hat in place of sigma_hat
    ks = np.array([10, 100, 1000])
    spacing = est.half_width(np.full(3, 0.5), ks, 0.1)
    assert np.array_equal(spacing, est.half_width(0.5, ks, 0.1))
    assert spacing[1] == est.half_width(0.5, 100, 0.1)


def test_ci_quantile_half_width():
    scale = 0.3 * math.sqrt(est.h_function(0.5))
    half = 0.3 * math.sqrt(est.h_function(0.5)) * special.ndtri(0.95) / 20.0
    assert est.half_width(scale, 400, 0.1) == pytest.approx(half, rel=1e-12)


def test_ci_eps_domain():
    for bad in (0.0, 1.0, 1.2):
        with pytest.raises(ValueError):
            est.half_width(0.5, 10, bad)


def test_ml_uniform_hand_value():
    # top-3 scaled spacings (0.2, 0.8, 0.5) -> half the max = 0.4
    z = np.array([0.3, 0.1, 0.2, 0.8, 0.5])
    h = heavy_sample(z, 1.0)
    assert est.ml_uniform(h, 3) == pytest.approx(0.4, rel=1e-12)


def test_ml_uniform_constant_is_zero():
    h = _heavy(np.full(8, 5.0), c=5.0)
    assert est.ml_uniform(h, 8) == 0.0


def test_ml_uniform_bias_is_order_one_over_n():
    # E max of n uniforms on (0, 1) is n/(n+1): the estimate sits just under gamma
    n, reps = 5000, 10**3
    rng = np.random.default_rng(48)
    vals = 0.5 * rng.random((reps, n)).max(axis=1)
    assert 0.4995 <= vals.mean() <= 0.5
