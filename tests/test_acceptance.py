"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with ``pytest -s tests/test_acceptance.py`` to see the lines as they
complete.  Every tolerance is fixed here; seeds are pinned so the suite is
deterministic.
"""

import math
import time

import numpy as np
from scipy import stats

from renyitail import engine
from renyitail import estimators as est
from renyitail import experiments as ex
from renyitail import large_deviations as ld
from renyitail import likelihood as lk
from renyitail import rand_models as rm
from renyitail import renyi

THREE_LAWS = ("unif:gamma=0.5", "bern:gamma=0.5", "exp:gamma=0.5")


def _report(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"[criterion {num}] {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num} {name}: {detail}"


def test_criterion_1_h_minimum():
    t0 = time.perf_counter()
    s0, h0 = est.h_minimizer()
    elapsed = time.perf_counter() - t0
    ok = abs(s0 - 0.797) <= 0.001 and abs(h0 - 1.544) <= 0.001 and elapsed < 1.0
    _report(1, "variance-multiplier minimum", ok,
            f"s0={s0:.6f}, h(s0)={h0:.6f}, {elapsed:.3f}s")


def test_criterion_2_variance_curve():
    cfg = ex.ExperimentConfig(
        experiment="variance_curve", specs=THREE_LAWS, n=1000, reps=1000,
        master_seed=3, s_grid=(0.5, 0.797, 0.95))
    table = ex.run_experiment(cfg)
    worst = 0.0
    for row in table.rows:
        h = row[1]
        worst = max(worst, max(abs(v - h) / h for v in row[2:]))
    _report(2, "quantile-estimator variance curve", worst <= 0.10,
            f"n=1000 reps=1000, worst relative deviation from h(s) = {worst:.3f}")


def test_criterion_3_coverage():
    cfg = ex.ExperimentConfig(
        experiment="coverage", specs=THREE_LAWS, n=2000, reps=2000,
        eps=0.1, master_seed=2026, k_grid=(2000,))
    table = ex.run_experiment(cfg)
    row = dict(zip(table.columns, table.rows[0]))
    covs = {law: row[f"{law}_spacing"] for law in THREE_LAWS}
    ok = all(0.88 <= c <= 0.92 for c in covs.values())
    detail = ", ".join(f"{law.split(':')[0]}={c:.4f}" for law, c in covs.items())
    _report(3, "interval coverage at k=n=2000", ok, detail + " (nominal 0.90)")


def test_criterion_4_pareto_equivalence():
    seeds, n, g = 500, 5000, 0.5
    hill_model = np.empty(seeds)
    hill_iid = np.empty(seeds)
    exp_spec, par_spec = rm.exponential(g), rm.strict_pareto(g, 1.0)
    for i in range(seeds):
        z = rm.draw(exp_spec, engine.SeedSpec(404, i).generator(), n)
        h = renyi.heavy_sample(z, 1.0)
        hill_model[i] = est.hill(h, n)
        w = np.sort(rm.draw(par_spec, engine.SeedSpec(505, i).generator(), n))
        hill_iid[i] = est.hill(renyi.HeavySample(1.0, w), n)
    d = stats.ks_2samp(hill_model, hill_iid).statistic
    # asymptotic two-sample critical value c(alpha) sqrt((n1 + n2)/(n1 n2))
    crit = stats.kstwobign.isf(0.01) * math.sqrt((seeds + seeds) / (seeds * seeds))
    _report(4, "strict-Pareto equivalence of the construction", d < crit,
            f"two-sample KS over {seeds} seeds: D={d:.4f} < {crit:.4f}")


def test_criterion_5_exact_moment_oracles():
    t0 = time.perf_counter()
    spec = rm.uniform(0.5)
    m = renyi.moment_recursion(spec, 2, 10**4)
    c = renyi.cross_moment_recursion(spec, 10**4)
    dev_m = abs(m[2, 10**4] - 0.5)
    dev_c = abs(c[10**4] - 0.25)
    dev_c2 = abs(c[2] - 5.0 / 24.0)
    elapsed = time.perf_counter() - t0
    ok = dev_m <= 0.01 and dev_c <= 0.01 and dev_c2 <= 1e-12 and elapsed < 1.0
    _report(5, "moment-recursion convergence", ok,
            f"|m2(1e4)-0.5|={dev_m:.5f}, |C(1e4)-0.25|={dev_c:.6f}, "
            f"|C2-5/24|={dev_c2:.1e}, {elapsed:.3f}s")


def test_criterion_6_exponential_limit():
    cfg = ex.ExperimentConfig(
        experiment="exp_limit", specs=("unif:gamma=0.5",), reps=10**5,
        master_seed=606, n_grid=(2000,))
    table = ex.run_experiment(cfg)
    ks = dict(zip(table.columns, table.rows[0]))["unif:gamma=0.5_ks"]
    psi = renyi.psi_n(rm.uniform(0.5), 2000, 1.0)
    psi_gap = abs(psi - 1.0 / (1.0 - 0.5j))
    ok = ks < 0.01 and psi_gap <= 0.01
    _report(6, "exponential limit of the reordered coordinate", ok,
            f"KS(n=2000, reps=1e5)={ks:.5f} < 0.01, |psi-limit|={psi_gap:.2e}")


def test_criterion_7_large_deviation_rates():
    tail = ld.exact_hill_tail(rm.exponential(1.0), 200, 2.0) / 200.0
    gap_tail = abs(tail - (-(1.0 - math.log(2.0))))
    worst = 0.0
    for r in np.linspace(0.5, 4.0, 5):
        for c in np.linspace(0.1, 0.9, 5):
            g = 1.0
            value = ld.rate_function(rm.gamma_law(float(r), g), (1.0 + c) * g)
            closed = r * c - r * math.log1p(c)
            worst = max(worst, abs(value - closed))
    ok = gap_tail <= 0.02 and worst <= 1e-8
    _report(7, "large-deviation rate oracles", ok,
            f"|tail/k + (1-log2)|={gap_tail:.4f} <= 0.02, "
            f"worst Legendre-vs-closed-form gap={worst:.2e} <= 1e-8")


def test_criterion_8_likelihood_identities():
    rng = np.random.default_rng(808)
    worst = 0.0
    for trial in range(20):
        n = int(rng.integers(50, 400))
        z = rng.gamma(2.0, 0.5 / 2.0, n)
        h = renyi.heavy_sample(z, 1.0)
        k = int(rng.integers(2, n + 1))
        hill_val = est.hill(h, k)
        worst = max(worst, abs(lk.ml_fit("exponential", h, k) - hill_val))
        worst = max(worst, abs(lk.ml_fit("gamma", h, k, r=2.0) - hill_val))
    from scipy import integrate
    model = lk.DensityModel(rm.exponential(1.0))
    total, _ = integrate.dblquad(
        lambda y2, y1: lk.permuted_density(model, [y1, y2]),
        0, np.inf, 0, np.inf)
    gap_norm = abs(total - 1.0)
    ok = worst <= 1e-6 and gap_norm <= 1e-4
    _report(8, "likelihood identities", ok,
            f"max |ml_fit - hill| over 20 datasets = {worst:.1e}, "
            f"|integral(permuted density) - 1| = {gap_norm:.1e}")


def test_criterion_9_determinism_across_workers():
    configs = [
        ex.ExperimentConfig(experiment="variance_curve", specs=THREE_LAWS, n=200,
                            reps=60, master_seed=909, s_grid=(0.3, 0.797, 0.95)),
        ex.ExperimentConfig(experiment="hill_plot",
                            specs=("pareto:gamma=0.5,c=1", "hall", "exp:gamma=0.5"),
                            n=300, reps=12, master_seed=909),
        ex.ExperimentConfig(experiment="coverage", specs=THREE_LAWS, n=200, reps=60,
                            master_seed=909, k_grid=(20, 200)),
        ex.ExperimentConfig(experiment="exp_limit", specs=("unif:gamma=0.5",),
                            reps=500, master_seed=909, n_grid=(50, 200)),
        ex.ExperimentConfig(experiment="ld_check", specs=("unif:gamma=0.5",),
                            reps=6000, master_seed=909, k_grid=(5, 10), y=0.6),
    ]
    mismatches = []
    for cfg in configs:
        outputs = [ex.run_experiment(cfg, workers=w).to_csv() for w in (1, 4, 8)]
        if not (outputs[0] == outputs[1] == outputs[2]):
            mismatches.append(cfg.experiment)
    _report(9, "bit-identical tables across 1/4/8 workers", not mismatches,
            "all five experiments" if not mismatches else f"mismatch in {mismatches}")
