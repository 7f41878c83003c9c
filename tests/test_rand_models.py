"""Law definitions: sampling, quantiles, moments, transforms, seeding."""

import math
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
import mpmath
from scipy import integrate, special

from renyitail import engine
from renyitail import rand_models as rm

SEED = engine.SeedSpec(1234)


def test_bernoulli_degenerate_atom_all_ones():
    z = rm.draw(rm.bernoulli(1.0), SEED.generator(), 1000)
    assert np.all(z == 1.0)


def test_uniform_sample_mean():
    z = rm.draw(rm.uniform(0.5), SEED.generator(), 10**6)
    assert 0.497 <= z.mean() <= 0.503


def test_exponential_sample_moments():
    z = rm.draw(rm.exponential(0.5), SEED.generator(), 10**6)
    assert 0.498 <= z.mean() <= 0.502
    assert abs(z.var(ddof=1) - 0.25) <= 0.02 * 0.25


@pytest.mark.parametrize("spec", [
    rm.exponential(0.5),
    rm.uniform(0.5),
    rm.bernoulli(0.5),
    rm.gamma_law(2.0, 0.5),
])
def test_spacing_law_mean_is_gamma(spec):
    z = rm.draw(spec, SEED.generator(), 10**6)
    bound = 4.0 * math.sqrt(spec.variance) / 1000.0
    assert abs(z.mean() - 0.5) <= bound
    assert np.all(z >= 0.0)


def test_pareto_quantile_hand_value():
    assert rm.quantile(rm.strict_pareto(0.5, 1.0), 0.75) == pytest.approx(2.0, abs=1e-12)


def test_exponential_quantile_hand_value():
    assert rm.quantile(rm.exponential(1.0), 1.0 - math.exp(-1.0)) == pytest.approx(1.0, rel=1e-12)


def test_quantile_domain_edges_error():
    for bad in (0.0, 1.0, -0.2, 1.5):
        with pytest.raises(ValueError):
            rm.quantile(rm.hall_class(), bad)


ALL_LAWS = [rm.exponential(0.5), rm.uniform(0.5), rm.bernoulli(0.5), rm.gamma_law(2.0, 0.5),
            rm.strict_pareto(0.5, 1.0), rm.hall_class()]


@pytest.mark.parametrize("spec", ALL_LAWS, ids=str)
def test_quantile_rejects_nan(spec):
    for bad in (math.nan, np.array([0.5, math.nan])):
        with pytest.raises(ValueError):
            rm.quantile(spec, bad)


@pytest.mark.parametrize("spec", ALL_LAWS, ids=str)
def test_mgf_rejects_nan(spec):
    with pytest.raises(ValueError):
        rm.mgf(spec, math.nan)


@pytest.mark.parametrize("spec", ALL_LAWS[:4], ids=str)
def test_cf_rejects_nan(spec):
    for bad in (math.nan, np.array([0.3, math.nan])):
        with pytest.raises(ValueError):
            rm.cf(spec, bad)


@pytest.mark.parametrize("spec", ALL_LAWS[:4], ids=str)
def test_cf_rejects_infinite_t(spec):
    # unchecked, inf gives nan+nanj with numpy RuntimeWarnings; psi_n rejects it the same way
    for bad in (math.inf, -math.inf, np.array([0.3, math.inf])):
        with pytest.raises(ValueError, match="t must be finite"):
            rm.cf(spec, bad)


def test_bernoulli_quantile_step():
    spec = rm.bernoulli(0.3)
    assert rm.quantile(spec, 0.69) == 0.0
    assert rm.quantile(spec, 0.7) == 0.0  # left-continuous inverse
    assert rm.quantile(spec, 0.71) == 1.0


@pytest.mark.parametrize("r, g", [(0.5, 1.0), (2.0, 0.5), (7.5, 3.0)])
def test_gamma_quantile_inverts_the_cdf(r, g):
    # shape r, rate r/g: F(x) = P(r, r x / g), the regularized lower incomplete gamma
    spec = rm.gamma_law(r, g)
    us = np.array([1e-6, 0.05, 0.5, 0.9, 0.999])
    for u in us.tolist():
        q = rm.quantile(spec, u)
        assert type(q) is float
        assert special.gammainc(r, r / g * q) == pytest.approx(u, rel=1e-12)
    qs = rm.quantile(spec, us)
    assert isinstance(qs, np.ndarray) and qs.shape == us.shape
    np.testing.assert_allclose(special.gammainc(r, r / g * qs), us, rtol=1e-12)


def test_uniform_second_moment():
    assert rm.moment(rm.uniform(0.5), 2) == pytest.approx(1.0 / 3.0, rel=1e-14)


def test_first_moment_is_gamma_everywhere():
    for spec in (rm.exponential(0.7), rm.uniform(0.7), rm.bernoulli(0.7),
                 rm.gamma_law(3.0, 0.7)):
        assert rm.moment(spec, 1) == pytest.approx(0.7, rel=1e-14)


def test_exponential_mgf_closed_form_and_quadrature():
    spec = rm.exponential(0.5)
    for t in (-1.0, 0.0, 1.3, 1.9):
        closed = rm.mgf(spec, t)
        numeric, _ = integrate.quad(lambda x: 2.0 * math.exp((t - 2.0) * x), 0, np.inf)
        assert closed == pytest.approx(numeric, rel=1e-8)
    assert rm.mgf(spec, 2.0) == math.inf
    assert rm.mgf(spec, 5.0) == math.inf


def test_uniform_mgf_analytic_limit_at_zero():
    assert rm.mgf(rm.uniform(0.5), 0.0) == 1.0


@pytest.mark.filterwarnings("error")
def test_uniform_mgf_overflow_is_inf_without_warning():
    spec = rm.uniform(0.5)  # M(t) = expm1(t) / t
    edge = math.log(sys.float_info.max)
    for t in (-1e4, -1.0, 1e-3, 700.0, edge):
        assert rm.mgf(spec, t) == float(np.expm1(t) / t)
    for t in (math.nextafter(edge, math.inf), 710.0, 1e4, 1e300):
        assert rm.mgf(spec, t) == math.inf


def test_pareto_moment_divergence_signal():
    spec = rm.strict_pareto(0.5, 1.0)
    assert rm.moment(spec, 1) == pytest.approx(2.0)  # 1/(1 - 0.5)
    assert rm.moment(spec, 2) == math.inf
    assert rm.moment(rm.hall_class(), 1) == pytest.approx(7.0 / 3.0, rel=1e-14)
    assert rm.moment(rm.hall_class(), 2) == math.inf


def test_hall_mean_matches_quadrature():
    numeric, _ = integrate.quad(lambda u: u**-0.5 * (1.0 + 0.5 * u), 0, 1)
    assert rm.moment(rm.hall_class(), 1) == pytest.approx(numeric, rel=1e-9)


def test_parameter_validation():
    with pytest.raises(ValueError):
        rm.exponential(-1.0)
    with pytest.raises(ValueError):
        rm.exponential(0.0)
    with pytest.raises(ValueError):
        rm.bernoulli(1.5)
    with pytest.raises(ValueError):
        rm.gamma_law(0.0, 1.0)
    with pytest.raises(ValueError):
        rm.strict_pareto(0.5, 0.0)
    with pytest.raises(ValueError, match="unexpected parameter c"):
        rm.DistributionSpec("exp", gamma=1.0, c=2.0)
    with pytest.raises(ValueError, match="unexpected parameter r"):
        rm.DistributionSpec("unif", gamma=1.0, r=2.0)
    with pytest.raises(ValueError, match="r must be positive"):
        rm.DistributionSpec("gamma", gamma=1.0)
    with pytest.raises(ValueError, match="c must be positive"):
        rm.DistributionSpec("pareto", gamma=0.5)


def _hall_cdf(x):
    """Numerical inverse of the Hall-class quantile (increasing in p)."""
    x = np.asarray(x, dtype=np.float64)
    lo = np.zeros_like(x)
    hi = np.ones_like(x) - 1e-15
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        v = 1.0 - mid
        q = v**-0.5 * (1.0 + 0.5 * v)
        take = q < x
        lo = np.where(take, mid, lo)
        hi = np.where(take, hi, mid)
    return 0.5 * (lo + hi)


@pytest.mark.parametrize("spec,cdf", [
    (rm.exponential(0.5), lambda x: 1.0 - np.exp(-2.0 * x)),
    (rm.uniform(0.5), lambda x: np.clip(x, 0, 1)),
    (rm.gamma_law(2.0, 0.5), lambda x: special.gammainc(2.0, 4.0 * x)),
    (rm.strict_pareto(0.5, 1.0), lambda x: 1.0 - x**-2.0),
    (rm.hall_class(), _hall_cdf),
])
def test_sampler_agrees_with_quantile_cdf(spec, cdf):
    reps = 10**5
    z = rm.draw(spec, engine.SeedSpec(2024).generator(), reps)
    zs = np.sort(z)
    f = cdf(zs)
    i = np.arange(1, reps + 1)
    ks = max(np.max(i / reps - f), np.max(f - (i - 1) / reps))
    assert ks < 1.63 / math.sqrt(reps)


def test_determinism_bit_identical():
    spec = rm.gamma_law(2.0, 0.5)
    a = rm.draw(spec, engine.SeedSpec(7, 3).generator(), 1000)
    b = rm.draw(spec, engine.SeedSpec(7, 3).generator(), 1000)
    assert np.array_equal(a, b)


def test_distinct_streams_differ():
    spec = rm.exponential(1.0)
    streams = [rm.draw(spec, engine.SeedSpec(7, i).generator(), 8).tobytes() for i in range(50)]
    assert len(set(streams)) == 50


_POSITIVE = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
_SPECS = st.one_of(
    st.builds(rm.exponential, _POSITIVE),
    st.builds(rm.uniform, _POSITIVE),
    st.builds(rm.bernoulli, st.floats(0.0, 1.0, exclude_min=True)),
    st.builds(rm.gamma_law, _POSITIVE, _POSITIVE),
    st.builds(rm.strict_pareto, _POSITIVE, _POSITIVE),
    st.just(rm.hall_class()),
)


def _parse_examples(test):
    for text in ("exp:gamma=0.5", "unif:gamma=0.5", "bern:gamma=0.5",
                 "gamma:r=2,gamma=0.5", "pareto:gamma=0.5,c=1", "hall"):
        test = example(spec=rm.parse_spec(text))(test)
    return test


@settings(derandomize=True, max_examples=200, deadline=None)
@given(spec=_SPECS)
@_parse_examples
def test_parse_round_trip(spec):
    assert rm.parse_spec(spec.canonical()) == spec


def test_canonical_text_of_every_law():
    # the canonical text names every stream tag and config line, so its bytes are pinned
    specs = (rm.exponential(0.5), rm.uniform(0.5), rm.bernoulli(0.5), rm.gamma_law(2.0, 0.5),
             rm.strict_pareto(0.5, 1.0), rm.hall_class())
    assert [spec.canonical() for spec in specs] == [
        "exp:gamma=0.5", "unif:gamma=0.5", "bern:gamma=0.5", "gamma:r=2.0,gamma=0.5",
        "pareto:gamma=0.5,c=1.0", "hall"]


def test_parse_case_insensitive():
    assert rm.parse_spec("EXP:GAMMA=0.5") == rm.exponential(0.5)


def test_parse_rejects_unknown():
    with pytest.raises(ValueError):
        rm.parse_spec("exp:lambda=2")
    with pytest.raises(ValueError):
        rm.parse_spec("weibull:gamma=1")
    with pytest.raises(ValueError):
        rm.parse_spec("exp:gamma=0.5,gamma=0.6")
    for text in ("exp:gamma=inf", "unif:gamma=inf", "exp:gamma=nan",
                 "gamma:r=inf,gamma=1", "gamma:r=2,gamma=inf",
                 "pareto:gamma=0.5,c=inf", "pareto:gamma=inf,c=1"):
        with pytest.raises(ValueError, match="finite"):
            rm.parse_spec(text)


def test_mgf_unsupported_negative_t_for_pareto():
    with pytest.raises(NotImplementedError):
        rm.mgf(rm.strict_pareto(0.5, 1.0), -1.0)
    assert rm.mgf(rm.strict_pareto(0.5, 1.0), 0.5) == math.inf


def test_cf_unsupported_kind():
    with pytest.raises(NotImplementedError):
        rm.cf(rm.hall_class(), 1.0)


def _unif_cf_mp(gamma, t):
    """(e^{ia} - 1)/(ia) with a = 2 gamma t, in 40-digit arithmetic."""
    with mpmath.workdps(40):
        a = 2 * mpmath.mpf(gamma) * mpmath.mpf(t)
        return complex((mpmath.expj(a) - 1) / (1j * a))


def test_uniform_cf_against_mpmath():
    # the direct (e^{ia} - 1)/(ia) cancels at small a: 4.4e-11 off at t = 1e-6
    spec = rm.uniform(0.5)
    for t in (1e-8, 1e-6, 1e-3, 0.3, 3.0, 30.0):
        for s in (t, -t):
            assert abs(rm.cf(spec, s) - _unif_cf_mp(0.5, s)) <= 4e-16
    assert rm.cf(spec, 0.0) == 1.0


def test_cf_array_matches_scalar():
    t = np.array([-30.0, -1.7, -1e-9, 0.0, 1e-6, 0.3, 2.0, 3.0 * math.pi])
    for spec in (rm.exponential(0.5), rm.uniform(0.5), rm.bernoulli(0.3),
                 rm.gamma_law(2.5, 0.5)):
        values = rm.cf(spec, t)
        assert values.shape == t.shape
        assert np.array_equal(values, [rm.cf(spec, float(s)) for s in t])
        assert type(rm.cf(spec, 0.3)) is complex
