"""Construction round trips and the exact finite-n oracles."""

import math
import tracemalloc
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from renyitail import rand_models as rm
from renyitail import renyi


def test_generalized_renyi_zero_case():
    x = renyi.generalized_renyi([0.0, 0.0, 0.0])
    assert np.array_equal(x, np.zeros(3))


def test_generalized_renyi_hand_value():
    x = renyi.generalized_renyi([1.0, 1.0, 1.0])
    expected = np.array([1.0 / 3.0, 1.0 / 3.0 + 0.5, 1.0 / 3.0 + 0.5 + 1.0])
    assert np.allclose(x, expected, rtol=1e-15)


def test_generalized_renyi_empty_rejected():
    with pytest.raises(ValueError):
        renyi.generalized_renyi([])


def test_exponential_maximum_matches_order_statistic_law():
    # with exponential spacings, x_n is the max of n iid exponentials
    n, reps, g = 10, 10**5, 1.0
    rng = np.random.default_rng(11)
    z = rng.exponential(g, (reps, n))
    x_top = np.sum(z / np.arange(n, 0, -1), axis=1)
    xs = np.sort(x_top)
    f = (1.0 - np.exp(-xs / g)) ** n
    i = np.arange(1, reps + 1)
    ks = max(np.max(i / reps - f), np.max(f - (i - 1) / reps))
    assert ks < 1.63 / math.sqrt(reps)


def test_exponential_minimum_matches_order_statistic_law():
    n, reps, g = 10, 10**5, 1.0
    rng = np.random.default_rng(12)
    x_min = rng.exponential(g, (reps, n))[:, 0] / n
    xs = np.sort(x_min)
    f = 1.0 - np.exp(-n * xs / g)
    i = np.arange(1, reps + 1)
    ks = max(np.max(i / reps - f), np.max(f - (i - 1) / reps))
    assert ks < 1.63 / math.sqrt(reps)


def test_heavy_sample_hand_value():
    # x = (0, log 2) needs z = (0, log 2) at n = 2
    h = renyi.heavy_sample([0.0, math.log(2.0) * 1.0], 2.0)
    assert np.allclose(h.w, [2.0, 4.0], rtol=1e-15)


def test_heavy_sample_constant():
    h = renyi.heavy_sample(np.zeros(5), 1.0)
    assert np.all(h.w == 1.0)


def test_heavy_sample_rejects_negative_spacings():
    for z in ([0.5, -0.1, 0.2], [0.5, -1e-300, 0.2]):
        with pytest.raises(ValueError, match="model violation"):
            renyi.heavy_sample(z, 1.0)


def test_heavy_sample_rejects_bad_scale():
    for c in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="scale C must be positive and finite"):
            renyi.heavy_sample([0.5, 0.1], c)
        with pytest.raises(ValueError, match="scale C must be positive and finite"):
            renyi.HeavySample(c, np.array([1.0, 2.0]))


def test_heavy_sample_accepts_negative_zero_spacing():
    assert np.array_equal(renyi.heavy_sample([0.5, -0.0, 0.2], 1.0).w,
                          renyi.heavy_sample([0.5, 0.0, 0.2], 1.0).w)


@pytest.mark.parametrize("z, c", [([800.0], 1.0), ([2.0, 1.0], 1e308)], ids=["exp", "multiply"])
def test_heavy_sample_overflow_is_an_error_not_a_warning(z, c):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"C\*exp\(x_n\) overflows float64"):
            renyi.heavy_sample(z, c)


_SPACING_LAWS = (rm.uniform(0.5), rm.bernoulli(0.5), rm.exponential(0.5), rm.gamma_law(2.0, 0.5))


@pytest.mark.parametrize("spec", _SPACING_LAWS, ids=lambda s: s.kind)
@pytest.mark.parametrize("n", [1, 2, 5000])
def test_model_zhat_is_the_difference_of_x(spec, n):
    z = rm.draw(spec, np.random.default_rng(31), n)
    zhat = renyi._model_zhat(z)
    x = renyi.generalized_renyi(z)
    assert np.array_equal(zhat, np.diff(np.concatenate(([0.0], x))) * renyi._descending(n))
    # the logs of w = exp(x) give the same spacings up to their roundoff: an ulp
    # of log w_k, times n+1-k, so about n ulps of x_n (1.1e-12 relative on bern at n = 5000)
    via_w = renyi.heavy_sample(z, 1.0).zhat
    assert np.max(np.abs(zhat - via_w)) <= n * np.finfo(np.float64).eps * max(x[-1], 1.0)


def test_model_zhat_never_forms_w():
    # heavy_sample overflows on these spacings; their log-scale spacings do not
    z = np.full(1000, 100.0)
    with pytest.raises(ValueError, match="overflows"):
        renyi.heavy_sample(z, 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        zhat = renyi._model_zhat(z)
    assert np.max(np.abs(zhat - z)) <= 1e-12 * 100.0


@pytest.mark.parametrize("z, match", [
    ([0.5, -1e-300, 0.2], "model violation"),
    ([0.5, np.nan, 0.2], "must be finite"),
    ([0.5, np.inf, 0.2], "must be finite"),
    ([], "nonempty"),
])
def test_model_zhat_rejects_bad_spacings(z, match):
    with pytest.raises(ValueError, match=match):
        renyi._model_zhat(z)


def _same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


# the floors log C of HeavySample.zhat; the golden digests cover only C = 1 and hall's 1.5
_SCALES = (1.5, 0.37, 1e-300, 1e300)


@pytest.mark.parametrize("c", [1.0, *_SCALES])
@pytest.mark.parametrize("m, n", [(1, None), (2, None), (5000, None), (1, 4), (3, 10), (5000, 6000)])
def test_scaled_spacings_is_the_scaled_difference(c, m, n):
    floor = math.log(c)
    rng = np.random.default_rng(53)
    z = rng.exponential(1.0, m)
    z[rng.random(m) < 0.2] = 0.0  # ties
    z[rng.random(m) < 0.1] *= -1.0  # and steps down: the function does not need order
    x = floor + np.cumsum(z)
    ref = np.diff(np.concatenate(([floor], x))) * renyi._descending(m if n is None else n)[:m]
    assert _same_bits(renyi._scaled_spacings(x, floor, n=n), ref)
    if floor == 0.0 and n is None:
        assert _same_bits(renyi._scaled_spacings(x), ref)


@pytest.mark.parametrize("c", _SCALES)
@pytest.mark.parametrize("n", [1, 2, 5000])
def test_heavy_sample_zhat_is_the_scaled_log_difference(c, n):
    rng = np.random.default_rng(59)
    w = np.sort(c * (1.0 + rng.pareto(2.0, n)))
    w[: n // 4] = c  # ties with the floor
    w[n // 3: n // 2] = w[n // 3]  # and among the values
    zhat = renyi.HeavySample(scale_c=c, w=w).zhat
    ref = np.diff(np.log(np.concatenate(([c], w)))) * renyi._descending(n)
    assert _same_bits(zhat, ref)


def test_descending_is_a_read_only_float_arange():
    for n in (1, 2, 5000):
        c = renyi._descending(n)
        assert c.dtype == np.float64
        assert np.array_equal(c, np.arange(n, 0, -1))
        assert renyi._descending(n) is c
        with pytest.raises(ValueError):
            c[0] = 0.0


def test_pareto_correspondence():
    # exponential spacings with mean g give sorted strict Pareto(1/g) samples
    n, reps, g = 10, 10**5, 0.5
    rng = np.random.default_rng(13)
    z = rng.exponential(g, (reps, n))
    x_top = np.sum(z / np.arange(n, 0, -1), axis=1)
    w_top = np.exp(x_top)  # C = 1
    ws = np.sort(w_top)
    f = (1.0 - ws ** (-1.0 / g)) ** n  # max of n iid Pareto
    i = np.arange(1, reps + 1)
    ks = max(np.max(i / reps - f), np.max(f - (i - 1) / reps))
    assert ks < 1.63 / math.sqrt(reps)


def _round_trip_examples(test):
    """The fixed cases: five uniform(0, 10) samples (n = 1 .. 1e4) and C in [0.5, 1.5) from seed 21."""
    rng = np.random.default_rng(21)
    for n in (1, 2, 17, 1000, 10**4):
        z = rng.random(n) * 10.0
        test = example(z=z.tolist(), c=float(rng.random() + 0.5))(test)
    return test


# The roundoff is absolute, about n ulps of log w, so the bound relative to max z
# is drawn only on samples whose largest spacing is at least 1.
@settings(derandomize=True, max_examples=200, deadline=None)
@given(z=st.lists(st.floats(0.0, 10.0), min_size=1, max_size=1000).filter(lambda z: max(z) >= 1.0),
       c=st.floats(0.5, 1.5))
@_round_trip_examples
def test_round_trip_identity(z, c):
    zhat = renyi.heavy_sample(z, c).zhat
    assert np.max(np.abs(zhat - z)) <= 1e-12 * np.max(np.abs(z))


def test_scaled_log_spacings_hand_value():
    h = renyi.HeavySample(scale_c=2.0, w=np.array([2.0, 4.0]))
    assert np.allclose(h.zhat, [0.0, math.log(2.0)], atol=1e-15)


def test_scaled_log_spacings_constant():
    h = renyi.HeavySample(scale_c=3.0, w=np.full(6, 3.0))
    assert np.all(h.zhat == 0.0)


def test_scaled_log_spacings_read_only_and_computed_once():
    h = renyi.heavy_sample([0.5, 0.1, 0.2], 1.0)
    zhat = h.zhat
    assert h.zhat is zhat
    for arr in (zhat, h.w):
        with pytest.raises(ValueError):
            arr[0] = 1.0
    w = np.array([1.0, 2.0])
    renyi.HeavySample(scale_c=1.0, w=w)
    w[0] = 1.5  # the caller's array stays writable


@pytest.mark.parametrize("w", [[1.0, 2.0, math.inf], [1.0, math.nan, 3.0], [math.nan, 2.0],
                               [math.inf, math.inf], [1.0, math.inf, 3.0], [1.0, 2.0, math.nan]])
def test_heavy_sample_rejects_non_finite(w):
    with pytest.raises(ValueError):
        renyi.HeavySample(scale_c=1.0, w=np.array(w))


def test_heavy_sample_order_check():
    w = np.array([1.0, 1.0, 2.0, 2.0, 2.0])  # equal neighbours are ordered
    assert np.array_equal(renyi.HeavySample(scale_c=1.0, w=w).w, w)
    with pytest.raises(ValueError, match="finite and nondecreasing"):
        renyi.HeavySample(scale_c=1.0, w=np.array([1.0, 2.0, 3.0, 2.5, 4.0]))


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.parametrize("z", [[0.5, math.nan, 0.2], [0.5, math.inf], [1.5e308] * 3])
def test_generalized_renyi_rejects_non_finite(z):
    with pytest.raises(ValueError):
        renyi.generalized_renyi(z)


def test_monotone_for_nonnegative_spacings():
    rng = np.random.default_rng(34)
    z = rng.random(500) * 3.0
    x = renyi.generalized_renyi(z)
    h = renyi.heavy_sample(z, 0.7)
    assert np.all(np.diff(x) >= 0.0)
    assert np.all(np.diff(h.w) >= 0.0)
    assert np.all(h.w >= 0.7)


def test_psi_at_zero_is_one():
    for spec in (rm.exponential(0.5), rm.uniform(0.5), rm.bernoulli(0.5),
                 rm.gamma_law(2.0, 0.5)):
        for n in (1, 2, 10, 500):
            assert renyi.psi_n(spec, n, 0.0) == pytest.approx(1.0, abs=1e-12)


def test_psi_n1_is_cf():
    spec = rm.uniform(0.5)
    for t in (-2.0, 0.3, 1.7):
        assert renyi.psi_n(spec, 1, t) == pytest.approx(rm.cf(spec, t), abs=1e-15)


def test_psi_exponential_exactness():
    # with exponential spacings the reordered coordinate is exactly exponential
    spec = rm.exponential(0.7)
    for n in (1, 2, 7, 50, 400):
        for t in (0.5, 1.3, -2.0):
            assert renyi.psi_n(spec, n, t) == pytest.approx(1.0 / (1.0 - 0.7j * t), abs=1e-12)


def test_psi_n2_hand_expansion():
    spec = rm.bernoulli(0.5)
    t = 1.3
    phi = rm.cf(spec, t)
    phi_half = rm.cf(spec, t / 2.0)
    expected = 0.5 * (phi_half + phi_half * phi)
    assert renyi.psi_n(spec, 2, t) == pytest.approx(expected, abs=1e-15)


def test_psi_unsupported_kind():
    with pytest.raises(NotImplementedError):
        renyi.psi_n(rm.strict_pareto(0.5, 1.0), 10, 1.0)


def test_psi_uniform_near_exponential_limit():
    spec = rm.uniform(0.5)
    assert abs(renyi.psi_n(spec, 4000, 1.0) - 1.0 / (1.0 - 0.5j)) <= 0.01


def _psi_loop(spec, n, t):
    """psi_n by the scalar running product over m = 1..n."""
    total, prod = 0.0 + 0.0j, 1.0 + 0.0j
    for m in range(1, n + 1):
        prod *= rm.cf(spec, t / (n + 1 - m))
        total += prod
    return total / n


def test_psi_matches_scalar_running_product():
    for spec in (rm.exponential(0.7), rm.gamma_law(2.5, 0.5), rm.bernoulli(0.3)):
        for n in (1, 2, 7, 4000):
            for t in (-2.0, 0.3, 1.7):
                assert abs(renyi.psi_n(spec, n, t) - _psi_loop(spec, n, t)) <= 1e-12


def test_psi_uniform_against_mpmath():
    n, t = 4000, 0.3
    with mpmath.workdps(40):
        total, prod = mpmath.mpc(0), mpmath.mpc(1)
        for c in range(n, 0, -1):
            a = mpmath.mpf(t) / c  # 2 gamma = 1
            prod *= (mpmath.expj(a) - 1) / (1j * a)
            total += prod
        exact = complex(total / n)
    assert abs(renyi.psi_n(rm.uniform(0.5), n, t) - exact) <= 1e-13


def test_psi_rejects_bad_arguments():
    spec = rm.uniform(0.5)
    for t in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="finite"):
            renyi.psi_n(spec, 10, t)
    for n in (2.5, 10.0, "10"):
        with pytest.raises(ValueError, match="n must be an integer"):
            renyi.psi_n(spec, n, 1.0)
    with pytest.raises(ValueError):
        renyi.psi_n(spec, 0, 1.0)
    assert renyi.psi_n(spec, np.int64(10), 1.0) == renyi.psi_n(spec, 10, 1.0)


def test_psi_and_joint_cf_against_simulation():
    """Empirical characteristic functions at a random coordinate pair.

    Verifies psi_n against simulation at k = 1 and the k = 2 joint
    characteristic function against the independent-exponential limit.
    """
    n, reps, g = 4000, 10**6, 0.5
    t1, t2 = 1.0, -1.0
    rng = np.random.default_rng(77)
    # float32 throughout the bulk simulation: the induced coordinate error
    # is ~1e-5, far below the Monte Carlo noise at this scale
    weights = (1.0 / np.arange(n, 0, -1)).astype(np.float32)
    ecf1 = 0.0 + 0.0j
    ecf_joint = 0.0 + 0.0j
    batch = 4000
    rows = np.arange(batch)
    for _ in range(reps // batch):
        z = rng.random((batch, n), dtype=np.float32)  # uniform(0, 1), gamma = 0.5
        x = np.cumsum(z * weights, axis=1, dtype=np.float32)
        i = rng.integers(0, n, size=batch)
        j = rng.integers(0, n - 1, size=batch)
        j = np.where(j >= i, j + 1, j)
        v1 = x[rows, i].astype(np.float64)
        v2 = x[rows, j].astype(np.float64)
        ecf1 += np.sum(np.exp(1j * t1 * v1))
        ecf_joint += np.sum(np.exp(1j * (t1 * v1 + t2 * v2)))
    ecf1 /= reps
    ecf_joint /= reps
    assert abs(ecf1 - renyi.psi_n(rm.uniform(g), n, t1)) <= 3.0 / math.sqrt(reps) + 0.002
    limit = (1.0 / (1.0 - 1j * t1 * g)) * (1.0 / (1.0 - 1j * t2 * g))
    assert abs(ecf_joint - limit) <= 0.02


# --- moment recursions -----------------------------------------------------

def _m2_direct(spec, n):
    """Second moment of the reordered coordinate by direct summation."""
    mu2 = rm.moment(spec, 2)
    g = spec.gamma
    w = 1.0 / np.arange(n, 0, -1)
    c1 = np.cumsum(w)
    c2 = np.cumsum(w * w)
    return float(np.mean(mu2 * c2 + g * g * (c1 * c1 - c2)))


def _cross_direct(spec, n):
    """Cross moment E(X_{D1,n} X_{D2,n}) by direct double summation."""
    mu2 = rm.moment(spec, 2)
    g = spec.gamma
    w = 1.0 / np.arange(n, 0, -1)
    c1 = np.cumsum(w)
    c2 = np.cumsum(w * w)
    total = 0.0
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            mn = min(i, j)
            total += mu2 * c2[mn] + g * g * (c1[i] * c1[j] - c2[mn])
    return total / (n * (n - 1))


def test_first_moment_row_is_gamma():
    m = renyi.moment_recursion(rm.uniform(0.5), 3, 200)
    assert np.allclose(m[1, 1:], 0.5, rtol=1e-12)


def test_exponential_moments_exact_for_all_n():
    m = renyi.moment_recursion(rm.exponential(1.0), 4, 100)
    for k in range(1, 5):
        assert np.allclose(m[k, 1:], math.factorial(k), rtol=1e-10)


def test_uniform_moment_hand_and_limit():
    spec = rm.uniform(0.5)  # uniform(0, 1)
    m = renyi.moment_recursion(spec, 2, 10**4)
    assert m[2, 2] == pytest.approx(0.375, rel=1e-14)  # 3*mu2/4 + gamma^2/2
    assert abs(m[2, 10**4] - 0.5) <= 0.01


def test_moment_recursion_matches_direct_formula():
    for spec in (rm.uniform(0.5), rm.bernoulli(0.3), rm.gamma_law(2.0, 1.0)):
        m = renyi.moment_recursion(spec, 2, 500)
        for n in (1, 2, 3, 10, 99, 500):
            assert m[2, n] == pytest.approx(_m2_direct(spec, n), rel=1e-11)


def test_moment_recursion_matches_monte_carlo():
    spec = rm.uniform(0.5)
    n, reps = 500, 10**5
    rng = np.random.default_rng(31)
    w = 1.0 / np.arange(n, 0, -1)
    vals = np.empty(reps)
    batch = 5000
    for b in range(reps // batch):
        x = np.cumsum(rng.random((batch, n)) * w, axis=1)
        idx = rng.integers(0, n, size=batch)
        vals[b * batch:(b + 1) * batch] = x[np.arange(batch), idx]
    emp = np.mean(vals**2)
    se = np.std(vals**2, ddof=1) / math.sqrt(reps)
    exact = renyi.moment_recursion(spec, 2, n)[2, n]
    assert abs(emp - exact) <= 4.0 * se


def test_moment_recursion_rejects_infinite_moments():
    with pytest.raises(ValueError):
        renyi.moment_recursion(rm.strict_pareto(0.5, 1.0), 2, 10)


_ORACLE_LAWS = (rm.exponential(0.7), rm.uniform(0.5), rm.bernoulli(0.3), rm.gamma_law(2.5, 0.5))


def _moment_loop(spec, k_max, n):
    """m[k, nu] by the column-by-column recursion in nu."""
    mu = [1.0] + [rm.moment(spec, k) for k in range(1, k_max + 1)]
    m = np.full((k_max + 1, n + 1), np.nan)
    m[0, 1:] = 1.0
    m[1:, 1] = mu[1:]
    for nu in range(2, n + 1):
        frac = (nu - 1) / nu
        for k in range(1, k_max + 1):
            acc = mu[k] / nu**k + frac * m[k, nu - 1]
            for j in range(1, k):
                acc += frac * math.comb(k, j) * nu ** (-(k - j)) * mu[k - j] * m[j, nu - 1]
            m[k, nu] = acc
    return m


def test_moment_recursion_matches_loop():
    ref = {spec: _moment_loop(spec, 6, 8000) for spec in _ORACLE_LAWS}
    for spec in _ORACLE_LAWS:
        for k_max in range(1, 7):
            for n in (1, 2, 3, 50, 8000):
                m = renyi.moment_recursion(spec, k_max, n)
                want = ref[spec][:k_max + 1, :n + 1]
                assert m.shape == want.shape
                assert np.all(np.isnan(m[:, 0]))
                assert np.allclose(m[:, 1:], want[:, 1:], rtol=1e-12, atol=0.0)


def _mp_moments(spec):
    """gamma and mu_2 of the law at the working mpmath precision."""
    g = mpmath.mpf(spec.gamma)
    mu2 = {"exp": lambda: 2 * g**2, "unif": lambda: (2 * g) ** 2 / 3, "bern": lambda: g,
           "gamma": lambda: g**2 * (1 + 1 / mpmath.mpf(spec.r))}[spec.kind]()
    return g, mu2


def _cross_exact(spec, nu):
    """C_nu in closed form at the working mpmath precision."""
    g, mu2 = _mp_moments(spec)
    return g**2 + (mu2 - 2 * g**2) * (nu - mpmath.harmonic(nu)) / (nu * (nu - 1))


def test_cross_moment_recursion_against_mpmath():
    # the t1 table's m11_exact column; 4096 is the block length of the running harmonic sum
    with mpmath.workdps(40):
        for spec in _ORACLE_LAWS + (rm.bernoulli(1.0),):
            g, mu2 = _mp_moments(spec)
            prev = mu2 / 4 + g**2 / 2  # the recursion at 40 digits, as a check on the reference
            for nu in range(3, 51):
                prev = mu2 / nu**2 + 2 * (g / nu) * (g - g / nu) + prev * (nu - 2) / nu
            assert abs(prev / _cross_exact(spec, 50) - 1) <= mpmath.mpf(10) ** -35
            c = renyi.cross_moment_recursion(spec, 100000)
            for nu in (2, 3, 4, 4096, 4097, 4098, 80000, 100000):
                want = _cross_exact(spec, nu)
                assert abs((mpmath.mpf(float(c[nu])) - want) / want) <= 4e-16, (spec, nu)


def test_cross_moment_exponential_is_exactly_gamma_squared():
    # sigma = gamma, so the harmonic term vanishes and no roundoff remains
    for g in (0.7, 0.5, 3.0):
        c = renyi.cross_moment_recursion(rm.exponential(g), 10000)
        assert np.all(c[2:] == g * g)


def test_cross_moment_recursion_memory_is_the_result_plus_one_block():
    spec = rm.uniform(0.5)
    tracemalloc.start()
    try:
        c = renyi.cross_moment_recursion(spec, 10**6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < c.nbytes + 2**20


def test_cross_moment_closed_form():
    """The recursion's solution C_nu = gamma^2 + (sigma^2 - gamma^2)(nu - H_nu)/(nu(nu-1)),
    with H_nu the harmonic number."""
    nu = np.arange(2, 80001, dtype=np.float64)
    harmonic = np.cumsum(1.0 / np.arange(1, 80001))[1:]
    for spec in _ORACLE_LAWS:
        g, var = spec.mean, spec.variance
        want = g * g + (var - g * g) * (nu - harmonic) / (nu * (nu - 1.0))
        got = renyi.cross_moment_recursion(spec, 80000)[2:]
        assert np.all(np.abs(got / want - 1.0) <= 1e-12)


def test_oracles_at_benchmark_sizes():
    """Closed forms of the exponential law at 1e-9, at the benchmark's oracle sizes."""
    g = 0.7
    spec = rm.exponential(g)
    for t in (-3.1, 0.4, 5.0):
        assert abs(renyi.psi_n(spec, 4000, t) - 1.0 / (1.0 - 1j * g * t)) <= 1e-9
    m = renyi.moment_recursion(spec, 6, 8000)
    for k in range(1, 7):
        assert np.all(np.abs(m[k, 1:] / (math.factorial(k) * g**k) - 1.0) <= 1e-9)
    c = renyi.cross_moment_recursion(spec, 80000)
    assert np.all(np.abs(c[2:] / g**2 - 1.0) <= 1e-9)


def test_oracles_reject_non_integer_sizes():
    spec = rm.uniform(0.5)
    # ValueError, which the CLI reports as a data error, not an uncaught TypeError
    with pytest.raises(ValueError, match="n must be an integer"):
        renyi.psi_n(spec, 2.5, 0.1)
    with pytest.raises(ValueError, match="n must be an integer"):
        renyi.moment_recursion(spec, 2, 10.0)
    with pytest.raises(ValueError, match="k_max must be an integer"):
        renyi.moment_recursion(spec, 2.5, 10)
    with pytest.raises(ValueError, match="n must be an integer"):
        renyi.cross_moment_recursion(spec, 2.5)
    with pytest.raises(ValueError):
        renyi.moment_recursion(spec, 0, 10)


def test_cross_moment_hand_values():
    assert renyi.cross_moment_recursion(rm.exponential(1.0), 2)[2] == pytest.approx(1.0, rel=1e-14)
    c = renyi.cross_moment_recursion(rm.uniform(0.5), 2)
    assert c[2] == pytest.approx(5.0 / 24.0, abs=1e-12)


def test_cross_moment_matches_direct_formula():
    for spec in (rm.uniform(0.5), rm.exponential(1.0), rm.bernoulli(0.4)):
        c = renyi.cross_moment_recursion(spec, 8)
        for n in (2, 3, 5, 8):
            assert c[n] == pytest.approx(_cross_direct(spec, n), rel=1e-12)


def test_cross_moment_limit():
    c = renyi.cross_moment_recursion(rm.uniform(0.5), 10**4)
    assert abs(c[10**4] - 0.25) <= 0.01


def test_cross_moment_needs_two_points():
    with pytest.raises(ValueError):
        renyi.cross_moment_recursion(rm.uniform(0.5), 1)
