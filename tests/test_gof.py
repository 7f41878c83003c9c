"""The one-sample KS statistic and asymptotic critical value of the t1 table."""

import math

import numpy as np
import pytest
from scipy import stats

from renyitail import experiments as ex
from renyitail import rand_models as rm
from renyitail.renyi import generalized_renyi


def _ks_critical(n):
    """The t1 table's ks_critical: the 1% quantile of the limiting KS law over sqrt(n)."""
    return stats.kstwobign.isf(0.01) / math.sqrt(n)


def test_critical_value_one_percent():
    # c(0.01) = 1.6276236115; the one-term 2 exp(-2c^2) series gave 1.6276236307
    assert _ks_critical(1) == pytest.approx(1.6276, abs=1e-4)
    assert _ks_critical(10**5) == pytest.approx(1.6276 / math.sqrt(10**5), rel=1e-4)


def test_t1_table_reads_the_critical_value():
    cfg = ex.ExperimentConfig(experiment="exp_limit", specs=("exp:gamma=0.5",), reps=50,
                              master_seed=3, n_grid=(5, 10))
    assert ex.run_experiment(cfg).column("ks_critical") == [_ks_critical(50)] * 2


def test_critical_value_tracks_rejection_rate():
    # under the null the 1% critical value rejects about 1% of the time
    rng = np.random.default_rng(3)
    n, trials = 2000, 1000
    crit = _ks_critical(n)
    rejections = 0
    for _ in range(trials):
        u = np.sort(rng.random(n))
        i = np.arange(1, n + 1)
        d = max(np.max(i / n - u), np.max(u - (i - 1) / n))
        rejections += d > crit
    assert rejections / trials <= 0.03


@pytest.mark.parametrize("law", ["exp:gamma=1", "unif:gamma=0.5", "bern:gamma=0.5"])
def test_ks_statistic_equals_scipy_bit_for_bit(law):
    # a random coordinate of the construction against Exp(gamma), as t1 takes it;
    # bern's coordinates take few values, so the sorted sample has ties
    spec = rm.parse_spec(law)
    rng = np.random.default_rng(26)
    v = np.array([generalized_renyi(rm.draw(spec, rng, 5))[rng.integers(5)]
                  for _ in range(20000)])
    assert spec.kind != "bern" or len(np.unique(v)) < 100

    def cdf(t):
        return 1.0 - np.exp(-t / spec.gamma)

    for n in (1, 2, 3, 10, 137, 1000, 20000):
        want = stats.kstest(v[:n], cdf).statistic
        assert ex._ks_statistic(v[:n], cdf).hex() == float(want).hex(), n
