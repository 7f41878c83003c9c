"""Rate functions, closed-form rates, and tail-probability oracles."""

import math
import tracemalloc
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special

from renyitail import engine
from renyitail import experiments as ex
from renyitail import large_deviations as ld
from renyitail import rand_models as rm


def test_rate_zero_at_mean():
    for spec in (rm.exponential(1.0), rm.uniform(0.5), rm.bernoulli(0.3),
                 rm.gamma_law(2.0, 1.5)):
        assert ld.rate_function(spec, spec.mean) == 0.0


def test_rate_exponential_closed_form():
    spec = rm.exponential(1.0)
    assert ld.rate_function(spec, 2.0) == pytest.approx(1.0 - math.log(2.0), abs=1e-10)
    for z in (0.2, 0.7, 1.5, 3.0, 10.0):
        assert ld.rate_function(spec, z) == pytest.approx(z - 1.0 - math.log(z), abs=1e-9)


def test_rate_gamma_closed_form():
    spec = rm.gamma_law(2.0, 1.0)
    assert ld.rate_function(spec, 1.5) == pytest.approx(2.0 * (0.5 - math.log(1.5)), abs=1e-10)


def test_rate_gamma_matches_closed_form_grid():
    for r in np.linspace(0.5, 4.0, 5):
        for c in np.linspace(0.1, 0.9, 5):
            g = 1.3
            spec = rm.gamma_law(float(r), g)
            expected = r * c - r * math.log1p(c)
            assert ld.rate_function(spec, (1.0 + c) * g) == pytest.approx(expected, abs=1e-8)


def test_rate_uniform_against_grid_search():
    # independent oracle: dense grid over the dual variable
    spec = rm.uniform(0.5)
    z = 0.6
    ts = np.linspace(1e-9, 30.0, 2_000_001)
    grid_val = np.max(z * ts - np.log(np.expm1(ts) / ts))
    assert ld.rate_function(spec, z) == pytest.approx(float(grid_val), abs=1e-9)


def test_rate_bernoulli_atoms_and_interior():
    spec = rm.bernoulli(0.5)
    assert ld.rate_function(spec, 1.0) == pytest.approx(math.log(2.0), abs=1e-10)
    assert ld.rate_function(spec, 0.0) == pytest.approx(math.log(2.0), abs=1e-10)
    # interior closed form: z log(z/g) + (1-z) log((1-z)/(1-g))
    for z in (0.2, 0.7):
        expected = z * math.log(z / 0.5) + (1 - z) * math.log((1 - z) / 0.5)
        assert ld.rate_function(spec, z) == pytest.approx(expected, abs=1e-9)


def test_rate_divergence_outside_hull():
    spec = rm.uniform(0.5)
    assert ld.rate_function(spec, 1.0) == math.inf  # continuous endpoint, no atom
    assert ld.rate_function(spec, 1.5) == math.inf
    assert ld.rate_function(spec, -0.1) == math.inf
    assert ld.rate_function(rm.exponential(1.0), 0.0) == math.inf
    assert ld.rate_function(rm.bernoulli(0.5), 1.2) == math.inf


def test_rate_degenerate_bernoulli():
    # bern:gamma=1 is the point mass at 1: zero rate there, infinite elsewhere
    spec = rm.bernoulli(1.0)
    for z in (0.0, 5e-324, 0.25, 0.5, 0.999, 1.0 - 2.0**-53):
        assert ld.rate_function(spec, z) == math.inf
    assert ld.rate_function(spec, 1.0) == 0.0


def _unif_rate_mpmath(g, z):
    """sup_x (s x - log(expm1(x)/x)) with s = z/(2g), at the root found by mpmath in 50 digits."""
    with mpmath.workdps(50):
        s = mpmath.mpf(z) / (2 * mpmath.mpf(g))
        slope = lambda x: 1 / -mpmath.expm1(-x) - 1 / x - s
        bracket = (-1 / s, mpmath.mpf(-1e-40)) if s < 0.5 else (mpmath.mpf(1e-40), 1 / (1 - s))
        x = mpmath.findroot(slope, bracket, solver="anderson")
        return float(s * x - mpmath.log(mpmath.expm1(x) / x))


def test_rate_uniform_against_mpmath():
    # absolute accuracy near the mean, relative accuracy out to both ends of (0, 2g)
    for g in (0.5, 1.3):
        for s in (1e-9, 1e-3, 0.0157, 0.2, 0.45, 0.499, 0.4999999, 0.5001, 0.6, 0.9, 0.999,
                  1.0 - 1e-5):
            z = 2.0 * g * s
            got, want = ld.rate_function(rm.uniform(g), z), _unif_rate_mpmath(g, z)
            assert got == pytest.approx(want, rel=1e-13, abs=1e-15)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.sampled_from(["exp", "unif", "bern", "gamma"]), st.floats(0.05, 0.95),
       st.floats(0.5, 4.0), st.floats(0.001, 0.999), st.floats(-1.0, 0.999))
def test_rate_dominates_dual_objective(kind, g, r, u, v):
    """I(z) >= z t - log M(t) for every t where the mgf M is finite."""
    spec = rm.gamma_law(r, g) if kind == "gamma" else rm.DistributionSpec(kind, gamma=g)
    z = {"unif": 2.0 * g * u, "bern": u}.get(kind, 5.0 * g * u)
    t_edge = {"exp": 1.0 / g, "gamma": r / g}.get(kind)  # the mgf's finite edge, if any
    t = v * t_edge if t_edge is not None and v > 0.0 else v * 30.0 / g
    assert ld.rate_function(spec, z) >= z * t - math.log(rm.mgf(spec, t)) - 1e-12


@pytest.mark.parametrize("spec", [rm.exponential(2.0), rm.gamma_law(2.5, 3.0)], ids=str)
def test_rate_where_z_over_gamma_underflows(spec):
    # u = z/gamma is subnormal or 0 here, yet I = r (u - 1 - log u) is finite, above 700 r
    r = spec.r if spec.kind == "gamma" else 1.0
    for z in (5e-324, 1e-310):
        with mpmath.workdps(50):
            u = mpmath.mpf(z) / mpmath.mpf(spec.gamma)
            want = float(r * (u - 1 - mpmath.log(u)))
        assert ld.rate_function(spec, z) == pytest.approx(want, rel=1e-12)


def test_rate_rejects_nan():
    for spec in (rm.exponential(1.0), rm.uniform(0.5), rm.bernoulli(0.3), rm.gamma_law(2.0, 1.0)):
        with pytest.raises(ValueError, match="NaN"):
            ld.rate_function(spec, math.nan)


def test_rate_unsupported_spec():
    with pytest.raises(ValueError):
        ld.rate_function(rm.strict_pareto(0.5, 1.0), 2.0)
    with pytest.raises(ValueError):
        ld.rate_function(rm.hall_class(), 2.0)


def test_rate_convexity_and_positivity():
    spec = rm.uniform(0.5)
    zs = np.linspace(0.05, 0.95, 37)
    vals = np.array([ld.rate_function(spec, float(z)) for z in zs])
    assert np.all(vals >= 0.0)
    assert np.all(vals[zs != 0.5] > 0.0)
    second = vals[2:] - 2.0 * vals[1:-1] + vals[:-2]
    assert np.all(second >= -1e-8)


def test_gamma_family_rates_hand_values():
    upper, lower = ld.gamma_family_rates(1.0, 0.5)
    assert upper == pytest.approx(-0.5 + math.log(1.5), abs=1e-12)
    assert lower == pytest.approx(0.5 + math.log(0.5), abs=1e-12)
    assert upper == pytest.approx(-0.09453, abs=5e-6)
    assert lower == pytest.approx(-0.19315, abs=5e-6)


def test_gamma_family_rates_continuity_at_zero():
    for c in (1e-4, 1e-6):
        upper, lower = ld.gamma_family_rates(1.0, c)
        assert abs(upper) < 1e-7
        assert abs(lower) < 1e-7


def test_gamma_family_rates_scale_with_r():
    for c in (0.1, 0.5, 0.9):
        u1, l1 = ld.gamma_family_rates(1.0, c)
        u2, l2 = ld.gamma_family_rates(2.0, c)
        assert u2 == pytest.approx(2.0 * u1, rel=1e-12)
        assert l2 == pytest.approx(2.0 * l1, rel=1e-12)


def test_gamma_family_rates_domain():
    with pytest.raises(ValueError):
        ld.gamma_family_rates(1.0, 1.0)
    with pytest.raises(ValueError):
        ld.gamma_family_rates(0.0, 0.5)


@pytest.mark.parametrize("r", [math.inf, math.nan])
def test_gamma_family_rates_rejects_non_finite_r(r):
    # unchecked, r = inf makes both rates inf - inf = nan
    with pytest.raises(ValueError, match="r must be positive and finite"):
        ld.gamma_family_rates(r, 0.5)


def test_iid_rates_are_the_r1_member():
    for c in (0.1, 0.5, 0.9):
        assert ld.iid_comparison_rates(c) == ld.gamma_family_rates(1.0, c)
    upper, _ = ld.iid_comparison_rates(0.9)
    assert upper == pytest.approx(-0.9 + math.log(1.9), abs=1e-12)
    assert upper == pytest.approx(-0.25815, abs=5e-6)


def test_log_gammaincc_against_mpmath():
    mpmath.mp.dps = 50
    for a, x in [(1.0, 2.0), (0.5, 3.0), (3.0, 1.0), (200.0, 400.0), (200.0, 300.0),
                 (1000.0, 3000.0), (50.0, 49.0), (2000.0, 2100.0), (10.0, 0.1)]:
        ref = float(mpmath.log(mpmath.gammainc(a, x, mpmath.inf, regularized=True)))
        mine = ld.log_gammaincc(a, x)
        assert mine == pytest.approx(ref, rel=1e-12, abs=1e-15)


def test_log_gammaincc_against_scipy_where_representable():
    for a, x in [(2.0, 5.0), (7.5, 3.2), (120.0, 180.0)]:
        assert ld.log_gammaincc(a, x) == pytest.approx(
            math.log(special.gammaincc(a, x)), rel=1e-12)


def test_exact_hill_tail_exponential_single():
    assert ld.exact_hill_tail(rm.exponential(1.0), 1, 2.0) == pytest.approx(-2.0, rel=1e-12)


def test_exact_hill_tail_limit_exponential():
    val = ld.exact_hill_tail(rm.exponential(1.0), 200, 2.0) / 200.0
    assert abs(val - (-(1.0 - math.log(2.0)))) <= 0.02


def test_exact_hill_tail_limit_gamma():
    val = ld.exact_hill_tail(rm.gamma_law(2.0, 1.0), 100, 1.5) / 100.0
    assert abs(val - (-0.18907)) <= 0.03


def test_exact_hill_tail_sure_event():
    assert ld.exact_hill_tail(rm.exponential(1.0), 10, 0.0) == 0.0
    assert ld.exact_hill_tail(rm.exponential(1.0), 10, -1.0) == 0.0


def test_log_gammaincc_rejects_nan():
    with pytest.raises(ValueError, match="positive"):
        ld.log_gammaincc(math.nan, 1.0)
    with pytest.raises(ValueError, match="NaN"):
        ld.log_gammaincc(2.0, math.nan)


def test_log_gammaincc_rejects_infinite_shape():
    # unchecked, a = inf sums a series of zeros and fails in math.log(0), a bare "math domain error"
    with pytest.raises(ValueError, match="shape a must be positive and finite"):
        ld.log_gammaincc(math.inf, 3.0)


@pytest.mark.parametrize("a, x, loop", [(1e9, 1e9 - 5, "series"),
                                         (1e11, 1e11 + 3, "continued fraction"),
                                         (1e12, 1e12 - 3, "series")])
def test_log_gammaincc_raises_at_its_loop_caps(a, x, loop):
    # near x = a the step count grows like sqrt(a); an unconverged loop holds a
    # wrong value (here about -0.69 is right), so its cap must raise
    with pytest.raises(ValueError, match=f"{loop} did not converge"):
        ld.log_gammaincc(a, x)


def test_exact_hill_tail_raises_where_its_oracle_cannot_converge():
    with pytest.raises(ValueError, match="did not converge"):
        ld.exact_hill_tail(rm.exponential(1.0), 10**12, 1 - 3e-12)


def test_exact_hill_tail_rejects_nan():
    with pytest.raises(ValueError, match="NaN"):
        ld.exact_hill_tail(rm.exponential(1.0), 5, math.nan)


@pytest.mark.parametrize("k", [2.5, 2.0])
def test_exact_hill_tail_rejects_non_integer_k(k):
    # there is no Hill estimator at k = 2.5, so there is no tail to return
    with pytest.raises(ValueError, match="k must be an integer"):
        ld.exact_hill_tail(rm.exponential(1.0), k, 1.5)


def test_exact_hill_tail_infinite_threshold():
    # Q(a, inf) = 0; the threshold may also overflow once scaled by k r/gamma
    assert ld.exact_hill_tail(rm.exponential(1.0), 5, math.inf) == -math.inf
    assert ld.exact_hill_tail(rm.gamma_law(2.0, 1.0), 3, 1e308) == -math.inf


def test_exact_hill_tail_unsupported():
    with pytest.raises(ValueError):
        ld.exact_hill_tail(rm.uniform(0.5), 10, 0.6)


def test_exact_hill_tail_oracle_convergence():
    rate = 1.0 - math.log(2.0)
    prev_gap = None
    for k in (50, 100, 200, 400):
        gap = -rate - ld.exact_hill_tail(rm.exponential(1.0), k, 2.0) / k
        assert 0.0 < gap <= 2.0 * math.log(k) / k
        if prev_gap is not None:
            assert gap < prev_gap
        prev_gap = gap


def _irwin_hall_sf(n: int, x: int) -> float:
    """Exact P(sum of n iid uniform(0,1) >= x) for integer x, by inclusion-
    exclusion in exact rational arithmetic."""
    total = Fraction(0)
    for j in range(0, min(x, n) + 1):
        total += (-1) ** j * math.comb(n, j) * Fraction(x - j) ** n
    return float(1 - total / math.factorial(n))


def test_mc_tail_sure_event():
    res = ex.mc_tail_logprob(rm.uniform(0.5), 10, -1.0, 2000, engine.SeedSpec(3))
    assert res.estimate == 0.0
    assert res.events == res.reps == 2000
    assert not res.insufficient


def test_mc_tail_insufficient_guard_before_sampling():
    # exponential gamma=1 at y=2, k=200: expected events ~ reps * e^{-61}
    res = ex.mc_tail_logprob(rm.exponential(1.0), 200, 2.0, 10**4, engine.SeedSpec(3))
    assert res.insufficient
    assert res.estimate is None
    assert res.std_error is None


def test_mc_tail_rejects_nan():
    with pytest.raises(ValueError, match="NaN"):
        ex.mc_tail_logprob(rm.exponential(1.0), 10, math.nan, 2000, engine.SeedSpec(3))


@pytest.mark.parametrize("k, reps", [(5.5, 2000), (5.0, 2000), (10, 1.5), (10, 2000.0)])
def test_mc_tail_counts_must_be_integers(k, reps):
    with pytest.raises(ValueError, match="must be an integer"):
        ex.mc_tail_logprob(rm.uniform(0.5), k, 0.6, reps, engine.SeedSpec(3))


def test_mc_tail_uniform_against_exact_enumeration():
    # mean of 20 uniforms above 0.6 <=> their sum of 20 above 12
    k, y, reps = 20, 0.6, 10**5
    res = ex.mc_tail_logprob(rm.uniform(0.5), k, y, reps, engine.SeedSpec(5))
    assert not res.insufficient
    exact = math.log(_irwin_hall_sf(20, 12)) / k
    assert res.estimate == pytest.approx(exact, abs=4.0 * res.std_error)


def test_mc_tail_approaches_rate_function():
    # by k = 100 the normalized log-frequency sits within 0.05 of -I(y)
    k, y, reps = 100, 0.6, 4 * 10**5
    spec = rm.uniform(0.5)
    res = ex.mc_tail_logprob(spec, k, y, reps, engine.SeedSpec(6))
    assert not res.insufficient
    assert abs(res.estimate - (-ld.rate_function(spec, y))) <= 0.05
    # and the exact enumeration agrees with the Monte Carlo value
    exact = math.log(_irwin_hall_sf(100, 60)) / k
    assert res.estimate == pytest.approx(exact, abs=4.0 * res.std_error)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(st.sampled_from(["exp:gamma=1", "unif:gamma=0.5", "bern:gamma=0.3",
                        "gamma:r=2.5,gamma=0.7"]), st.integers(0, 2**64 - 1))
def test_mc_tail_sum_over_k_is_the_mean(law, stream):
    """numpy's z.mean() is np.add.reduce(z) divided by the count, the quantity
    mc_tail_logprob's fold takes from each row of a block; this pins it per
    draw for every k up to 400 (the row form is pinned below)."""
    spec, rng = rm.parse_spec(law), engine.SeedSpec(13, stream).generator()
    for k in range(1, 401):
        z = rm.draw(spec, rng, k)
        assert float(np.add.reduce(z)) / k == z.mean()


_PAIRWISE_EDGES = (1, 7, 8, 9, 127, 128, 129, 257, 400)  # where numpy's pairwise sum changes


@pytest.mark.parametrize("law", ["exp:gamma=1", "unif:gamma=0.5", "bern:gamma=0.3",
                                 "gamma:r=2.5,gamma=0.7"])
def test_mc_tail_fold_matches_per_replication_mean(law):
    """The row reduce of a stacked block gives each row's .mean() bit for bit,
    and mc_tail_logprob's events are the fresh-stream count of .mean() >= y.
    y is the law's mean, so about half the rows hit and no rate cuts the run."""
    spec, seed, reps = rm.parse_spec(law), engine.SeedSpec(19, 4), 300
    y = spec.mean
    for k in _PAIRWISE_EDGES:
        base = engine._stream_base(f"mc_tail/{spec.canonical()}/k={k}/y={y!r}/s=4")
        block = np.asarray([rm.draw(spec, engine.SeedSpec(19, base + i).generator(), k)
                            for i in range(reps)])
        means = np.array([row.mean() for row in block])
        assert np.array_equal(np.add.reduce(block, axis=1) / k, means), k
        assert ex.mc_tail_logprob(spec, k, y, reps, seed).events == np.sum(means >= y), k


def test_mc_tail_memory_stays_flat():
    """Replications are folded a block at a time: holding all 100 000 x 50 draws
    would take 40 MB, a block of them 0.4 MB."""
    tracemalloc.start()
    try:
        result = ex.mc_tail_logprob(rm.exponential(1.0), 50, 1.01, 100_000, engine.SeedSpec(3))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not result.insufficient
    assert peak < 4e6


@pytest.mark.parametrize("law,y", [("exp:gamma=1", 1.2), ("bern:gamma=0.5", 0.6)])
@pytest.mark.parametrize("k", [5, 10, 20])
def test_mc_tail_events_match_mean_rule_on_fresh_streams(law, y, k):
    """The hit count equals a plain count of draw(...).mean() >= y over fresh
    streams.  k >= 8 is where numpy's pairwise sum unrolls, and bern puts
    some means exactly on y = 0.6, so a rule that rounded differently from
    .mean() would miscount."""
    spec, seed, reps = rm.parse_spec(law), engine.SeedSpec(17, 3), 3000
    base = engine._stream_base(f"mc_tail/{spec.canonical()}/k={k}/y={y!r}/s=3")
    expected = sum(rm.draw(spec, engine.SeedSpec(17, base + i).generator(), k).mean() >= y
                   for i in range(reps))
    assert 0 < expected < reps
    for workers in (1, 2):
        assert ex.mc_tail_logprob(spec, k, y, reps, seed, workers=workers).events == expected


def test_mc_tail_deterministic_across_workers():
    a = ex.mc_tail_logprob(rm.uniform(0.5), 20, 0.6, 20000, engine.SeedSpec(7), workers=1)
    b = ex.mc_tail_logprob(rm.uniform(0.5), 20, 0.6, 20000, engine.SeedSpec(7), workers=4)
    assert a == b
