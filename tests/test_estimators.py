"""Tail-index estimators, their sampling laws, and interval arithmetic."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
import mpmath
from scipy import special

from renyitail import _special
from renyitail import estimators as est
from renyitail import rand_models as rm
from renyitail.experiments import _zhat_for, default_k_grid, default_s_grid
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


def test_ml_uniform_k_domain():
    h = _heavy([1.0, 2.0, 4.0])
    for bad in (0, 4, np.array([1, 2]), np.array([2]), np.array([1.0])):
        with pytest.raises(ValueError):
            est.ml_uniform(h, bad)
    assert est.ml_uniform(h, np.array(2)) == est.ml_uniform(h, 2)


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


@settings(derandomize=True, max_examples=200, deadline=None)
@given(z=st.lists(st.floats(0.0, 100.0), min_size=2, max_size=300),
       c=st.floats(0.01, 100.0), data=st.data())
def test_k_grid_equals_scalar_calls_bit_for_bit(z, c, data):
    h = heavy_sample(z, c)
    ks = np.array(data.draw(st.lists(st.integers(1, h.n), min_size=1, max_size=20)))
    assert np.array_equal(est.hill(h, ks), [est.hill(h, int(k)) for k in ks])
    ks = np.array(data.draw(st.lists(st.integers(2, h.n), min_size=1, max_size=20)))
    assert np.array_equal(est.spacing_sigma(h, ks), [est.spacing_sigma(h, int(k)) for k in ks])


def test_hill_kernel_is_the_first_value_of_hill_sigma():
    # figure 2 reads the Hill-only kernel, figure 3 the pair; the Hill bits must agree
    zhat = heavy_sample(np.random.default_rng(45).exponential(0.5, 300), 1.5).zhat
    for ks in (np.arange(1, 301), np.array([1, 2, 37, 300]), np.array(17)):
        for kf in (ks, ks.astype(np.float64)):
            kmax = int(ks.max())
            gh = est._hill(zhat, ks - 1, kf, kmax)
            assert gh.tobytes() == est._hill_sigma(zhat, ks - 1, kf, kmax)[0].tobytes()


def _two_cumsum_hill_sigma(zhat, idx, ks, kmax):
    """The Hill and sigma_hat kernel as two real prefix sums, one per running sum."""
    top = est._top(zhat, kmax)
    c1 = np.cumsum(top)[idx]
    c2 = np.cumsum(top * top)[idx]
    return c1 / ks, np.sqrt(np.maximum((c2 - c1 * c1 / ks) / np.maximum(ks - 1.0, 1.0), 0.0))


def _assert_kernel_is_two_cumsums(zhat, ks):
    kmax = int(ks.max())
    for kf in (ks, ks.astype(np.float64)):
        got = est._hill_sigma(zhat, ks - 1, kf, kmax)
        want = _two_cumsum_hill_sigma(zhat, ks - 1, kf, kmax)
        for g, w in zip(got, want):
            assert type(g) is type(w) and g.tobytes() == w.tobytes()


@pytest.mark.parametrize("n", [2, 50, 5000])
@pytest.mark.parametrize("law", ["exp:gamma=0.5", "unif:gamma=0.5", "bern:gamma=0.5",
                                 "gamma:gamma=0.5,r=2", "pareto:gamma=0.5,c=1", "hall"])
def test_hill_sigma_kernel_is_two_real_cumsums_bit_for_bit(law, n):
    # one complex prefix sum holds both running sums, each with the bits of its own
    # real cumsum; pareto and hall read the read-only HeavySample.zhat
    zhat = _zhat_for(rm.parse_spec(law), np.random.default_rng(46), n)
    for ks in (np.arange(1, n + 1), np.array(default_k_grid(n)), np.array(max(1, n // 3))):
        _assert_kernel_is_two_cumsums(zhat, ks)


def test_hill_sigma_kernel_where_the_squares_overflow():
    # zhat near 1e200: the sum of squares is inf and sigma_hat nan, while the
    # sum itself, and so Hill, stays finite, as with two real cumsums
    zhat = 1e200 * np.random.default_rng(47).exponential(1.0, 50)
    ks = np.arange(1, 51)
    with np.errstate(over="ignore", invalid="ignore"):
        gh, sig = est._hill_sigma(zhat, ks - 1, ks, 50)
        _assert_kernel_is_two_cumsums(zhat, ks)
    assert np.all(np.isfinite(gh)) and np.all(np.isnan(sig[1:]))


def test_spacing_sigma_scalar_equals_grid_regression():
    # c1**2 on a 0-d numpy scalar rounded differently from the same square in an array;
    # the top 3 of this sample are 6.0, 5.1, 0.9, the values that showed it
    h = heavy_sample([1.3, 0.9, 5.1, 6.0], 1.0)
    assert est.spacing_sigma(h, 3) == est.spacing_sigma(h, np.array([3]))[0] == 2.7221315177632395


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
    for bad_x in ([1.0, math.nan], [1.0, math.inf], [-math.inf, 1.0], np.zeros((2, 2)), 1.0):
        with pytest.raises(ValueError, match="x must be"):
            est.quantile_estimator(bad_x, 0.9)


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


def test_h_minimizer_is_the_correctly_rounded_root():
    # 0.796812130020020046...; Lambert W's closed form rounds it 1 ulp low
    with mpmath.workdps(40):
        root = mpmath.findroot(lambda s: -mpmath.log(1 - s) - 2 * s, (0.7, 0.9), solver="anderson")
    assert est.h_minimizer()[0] == float(root)


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


# k >= 20: the one-pass variance loses all digits when the top k spacings are
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
    assert est.spacing_sigma(h, k) == pytest.approx(np.std(h.zhat[n - k:], ddof=1), rel=1e-12)


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
    assert est.half_width(scale, 400, 0.1) == half


def test_ci_eps_domain():
    for bad in (0.0, 1.0, 1.2):
        with pytest.raises(ValueError):
            est.half_width(0.5, 10, bad)


@pytest.mark.parametrize("scale, m", [
    (0.5, 0), (0.5, -4), (0.5, math.nan), (0.5, np.array([10, 0])),
    (math.nan, 10), (math.inf, 10), (-0.1, 10), (np.array([0.5, math.nan]), np.array([3, 4])),
], ids=repr)
def test_ci_scale_and_m_domain(scale, m):
    with pytest.raises(ValueError, match="scale must|m must"):
        est.half_width(scale, m, 0.1)


def test_ndtri_equals_scipy_bit_for_bit():
    rng = np.random.default_rng(2024)
    tiny = 10.0 ** -rng.uniform(1.0, 16.0, 5000)  # x >= 8 once y is within 1e-14 of 0 or 1
    grid = np.concatenate([
        rng.random(20000),  # mostly the central branch, |y - 1/2| <= 1/2 - exp(-2)
        10.0 ** -rng.uniform(0.0, 300.0, 5000), tiny, 1.0 - tiny,  # both tails, 2 <= x < 8 and x >= 8
        np.linspace(0.0, 1.0, 10001),
        # 1 - eps/2 for the default eps and every eps the figures and tests use
        1.0 - np.array([0.1, 0.05, 0.01, 0.001, 0.2, 0.3, 0.5, 0.9, 0.999, 1e-6]) / 2.0,
    ])
    want = special.ndtri(grid)
    got = np.array([_special._ndtri(float(y)) for y in grid])
    assert np.array_equal(got.view(np.int64), want.view(np.int64))
    # every branch is reached, by x = sqrt(-2 log min(y, 1 - y)), which picks it
    inner = grid[(0.0 < grid) & (grid < 1.0)]
    x = np.sqrt(-2.0 * np.log(np.minimum(inner, 1.0 - inner)))
    assert (x < 2.0).any() and ((2.0 <= x) & (x < 8.0)).any()
    assert (x[inner < 0.5] >= 8.0).any() and (x[inner > 0.5] >= 8.0).any()


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
