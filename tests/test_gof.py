"""The asymptotic one-sample KS critical value of the t1 table."""

import math

import numpy as np
import pytest

from renyitail.experiments import _ks_critical


def test_critical_value_one_percent():
    # c(0.01) = sqrt(-log(0.005)/2) ~ 1.628, the 1.63/sqrt(n) rule
    assert _ks_critical(0.01, 1) == pytest.approx(1.6276, abs=1e-4)
    assert _ks_critical(0.01, 10**5) == pytest.approx(1.6276 / math.sqrt(10**5), rel=1e-4)


def test_critical_value_tracks_rejection_rate():
    # under the null the 1% critical value rejects about 1% of the time
    rng = np.random.default_rng(3)
    n, trials = 2000, 1000
    crit = _ks_critical(0.01, n)
    rejections = 0
    for _ in range(trials):
        u = np.sort(rng.random(n))
        i = np.arange(1, n + 1)
        d = max(np.max(i / n - u), np.max(u - (i - 1) / n))
        rejections += d > crit
    assert rejections / trials <= 0.03
