"""Experiment harness: configs, tables, determinism, and statistical output."""

import csv
import io
import json
import math

import numpy as np
import pytest

from renyitail import experiments as ex
from renyitail import rand_models as rm
from renyitail.estimators import h_function
from renyitail.large_deviations import exact_hill_tail
from renyitail.renyi import cross_moment_recursion

THREE_LAWS = ("unif:gamma=0.5", "bern:gamma=0.5", "exp:gamma=0.5")


def test_config_round_trip():
    cfg = ex.ExperimentConfig(
        experiment="coverage", specs=THREE_LAWS, n=500, reps=100, eps=0.1,
        master_seed=11, k_grid=(10, 500), y=None)
    again = ex.ExperimentConfig.from_text(cfg.to_text())
    assert again == cfg
    cfg2 = ex.ExperimentConfig(
        experiment="variance_curve", specs=("unif:gamma=0.5",),
        s_grid=(0.2, 0.5, 1.0 / 3.0), n=100, reps=10)
    assert ex.ExperimentConfig.from_text(cfg2.to_text()) == cfg2


def test_config_validation():
    with pytest.raises(ValueError):
        ex.ExperimentConfig(experiment="nope", specs=THREE_LAWS)
    with pytest.raises(ValueError):
        ex.ExperimentConfig(experiment="coverage", specs=())
    with pytest.raises(ValueError):
        ex.ExperimentConfig(experiment="coverage", specs=THREE_LAWS, eps=1.5)
    with pytest.raises(ValueError):
        ex.ExperimentConfig(experiment="coverage", specs=THREE_LAWS, n=100,
                            k_grid=(0, 10))
    with pytest.raises(ValueError):
        ex.ExperimentConfig(experiment="variance_curve", specs=THREE_LAWS,
                            s_grid=(0.2, 1.2))
    for y in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="finite"):
            ex.ExperimentConfig(experiment="ld_check", specs=("exp:gamma=1",), y=y)


def test_variance_curve_rejects_iid_laws():
    cfg = ex.ExperimentConfig(experiment="variance_curve",
                              specs=("pareto:gamma=0.5,c=1",), n=100, reps=10)
    with pytest.raises(ValueError):
        ex.run_variance_curve(cfg)


def test_report_table_row_width_checked():
    with pytest.raises(ValueError):
        ex.ReportTable(["a", "b"], [(1,)], {})


def test_report_table_csv_and_json():
    t = ex.ReportTable(["k", "value", "note"], [(1, 0.5, None), (2, float("nan"), "x,y")],
                       {"master_seed": 3, "config": "{}"})
    text = t.to_csv()
    assert text.startswith("# config={}\r\n# master_seed=3\r\n")
    body = text.split("\r\n", 2)[2]
    rows = list(csv.reader(io.StringIO(body)))
    assert rows[0] == ["k", "value", "note"]
    assert rows[1] == ["1", "0.5", ""]
    assert rows[2][2] == "x,y"  # quoted comma survives the round trip
    payload = json.loads(t.to_json())
    assert payload["meta"]["master_seed"] == 3
    assert payload["rows"][0]["value"] == 0.5
    assert payload["rows"][1]["value"] is None  # NaN maps to null


def test_report_table_numpy_scalar_cells_emit_cleanly():
    t = ex.ReportTable(["k", "v"], [(np.int64(3), np.float64(0.25))], {})
    lines = t.to_csv().splitlines()
    assert lines[1] == "3,0.25"
    row = json.loads(t.to_json())["rows"][0]
    assert row["v"] == 0.25


def test_replication_map_split_and_merge():
    fn = lambda rng: rng.random(3)
    full = ex.replication_map(fn, 20, 7, "tag/x")
    first = ex.replication_map(fn, 10, 7, "tag/x", start=0)
    second = ex.replication_map(fn, 10, 7, "tag/x", start=10)
    assert np.array_equal(full, np.vstack([first, second]))


def test_replication_map_worker_counts_identical():
    fn = lambda rng: rng.random(4)
    base = ex.replication_map(fn, 37, 7, "tag/y", workers=1)
    for workers in (2, 4, 8):
        assert np.array_equal(base, ex.replication_map(fn, 37, 7, "tag/y", workers=workers))


def test_distinct_experiments_use_distinct_streams():
    fn = lambda rng: rng.random(2)
    a = ex.replication_map(fn, 5, 7, "tag/a")
    b = ex.replication_map(fn, 5, 7, "tag/b")
    assert not np.array_equal(a, b)


def _mixed_draws(rng):
    """Three 32-bit integers (leaving a half-used 64-bit word) plus
    uniforms and ziggurat draws (leaving the Philox block buffer part-used)."""
    ints = [rng.integers(1000) for _ in range(3)]
    return np.concatenate([ints, rng.random(3), rng.exponential(size=2),
                           rng.standard_gamma(2.5, size=2)])


def _reference(fn, reps, seed, tag, start=0):
    base = rm._stream_base(tag)
    return np.asarray([fn(rm.SeedSpec(seed, base + i).generator())
                       for i in range(start, start + reps)])


def test_stream_reuse_leaves_partial_buffers():
    """Premise of the equivalence test: replications end mid-buffer, so a
    re-key that skipped has_uint32 or buffer_pos would leak state."""
    ends = []
    for i in range(8):
        rng = rm.SeedSpec(7, i).generator()
        _mixed_draws(rng)
        ends.append(rng.bit_generator.state)
    assert any(st["has_uint32"] == 1 for st in ends)
    assert any(st["buffer_pos"] < 4 for st in ends)  # 4 = block used up


@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize("start,reps", [(0, 25), (7, 19)])
def test_replication_map_matches_fresh_streams(workers, start, reps):
    got = ex.replication_map(_mixed_draws, reps, 7, "tag/eq", workers=workers, start=start)
    assert np.array_equal(got, _reference(_mixed_draws, reps, 7, "tag/eq", start=start))


def test_replication_map_split_at_odd_start_matches_fresh_streams():
    full = _reference(_mixed_draws, 30, 11, "tag/split")
    head = ex.replication_map(_mixed_draws, 13, 11, "tag/split", workers=2)
    tail = ex.replication_map(_mixed_draws, 17, 11, "tag/split", workers=3, start=13)
    assert np.array_equal(np.vstack([head, tail]), full)


def test_replication_map_range_checked_before_any_replication():
    calls = []

    def fn(rng):
        calls.append(1)
        return rng.random()

    room = 2**64 - rm._stream_base("tag/edge")  # streams left under this tag
    for kwargs in ({"master_seed": -1}, {"master_seed": 2**64},
                   {"master_seed": 7, "start": room - 4},
                   {"master_seed": 7, "start": -rm._stream_base("tag/edge") - 1}):
        with pytest.raises(ValueError, match="64 unsigned bits"):
            ex.replication_map(fn, 5, tag="tag/edge", **kwargs)
    assert calls == []
    # the last representable streams are still reachable, with any worker count
    expected = _reference(fn, 5, 7, "tag/edge", start=room - 5)
    for workers in (1, 2):
        got = ex.replication_map(fn, 5, 7, "tag/edge", workers=workers, start=room - 5)
        assert np.array_equal(got, expected)


def test_variance_curve_values():
    cfg = ex.ExperimentConfig(
        experiment="variance_curve", specs=THREE_LAWS, n=1000, reps=1000,
        master_seed=3, s_grid=(0.5, 0.797, 0.95))
    table = ex.run_variance_curve(cfg)
    assert table.columns == ["s", "h", *THREE_LAWS]
    assert len(table.rows) == 3
    for row in table.rows:
        s, h = row[0], row[1]
        assert h == pytest.approx(h_function(s), rel=1e-12)
        for v in row[2:]:
            assert abs(v - h) <= 0.10 * h


def test_variance_curve_single_rep_degenerate():
    cfg = ex.ExperimentConfig(
        experiment="variance_curve", specs=("unif:gamma=0.5",), n=50, reps=1,
        master_seed=5, s_grid=(0.5,))
    table = ex.run_variance_curve(cfg)
    assert table.rows[0][2] == 0.0
    assert table.meta["degenerate_variance"] is True


def test_variance_curve_ratio_over_grid():
    cfg = ex.ExperimentConfig(
        experiment="variance_curve", specs=("unif:gamma=0.5",), n=1000, reps=1000,
        master_seed=12)
    table = ex.run_variance_curve(cfg)
    assert len(table.rows) == 790
    ratios = [row[2] / row[1] for row in table.rows]
    assert 0.93 <= float(np.mean(ratios)) <= 1.07


def test_hill_plot_full_k_unbiased():
    cfg = ex.ExperimentConfig(
        experiment="hill_plot", specs=THREE_LAWS, n=2000, reps=1,
        master_seed=21, avg_seeds=100)
    table = ex.run_hill_plot(cfg)
    assert len(table.rows) == 2000
    last = table.rows[-1]
    assert last[0] == 2000
    for v in last[1:]:
        assert abs(v - 0.5) <= 0.01


def test_hill_plot_hall_bias_grows_with_k():
    cfg = ex.ExperimentConfig(
        experiment="hill_plot", specs=("hall",), n=5000, reps=1,
        master_seed=22, avg_seeds=100)
    table = ex.run_hill_plot(cfg)
    col = table.column("hall")
    assert abs(col[2500 - 1] - 0.5) > abs(col[50 - 1] - 0.5)


def test_coverage_nominal_level():
    cfg = ex.ExperimentConfig(
        experiment="coverage", specs=("exp:gamma=0.5",), n=2000, reps=2000,
        eps=0.1, master_seed=23, k_grid=(2000,))
    table = ex.run_coverage(cfg)
    cov = table.rows[0][1]
    assert 0.88 <= cov <= 0.92


def test_coverage_extreme_level_near_zero():
    cfg = ex.ExperimentConfig(
        experiment="coverage", specs=("exp:gamma=0.5",), n=200, reps=400,
        eps=0.999, master_seed=24, k_grid=(200,))
    table = ex.run_coverage(cfg)
    assert table.rows[0][1] <= 0.01


def test_coverage_iid_pareto_interval_methods_agree():
    cfg = ex.ExperimentConfig(
        experiment="coverage", specs=("pareto:gamma=0.5,c=1",), n=2000, reps=2000,
        eps=0.1, master_seed=25, k_grid=(1000,))
    table = ex.run_coverage(cfg)
    row = table.rows[0]
    assert abs(row[1] - row[2]) < 0.02


def test_coverage_rejects_k_below_two():
    with pytest.raises(ValueError):
        ex.run_coverage(ex.ExperimentConfig(
            experiment="coverage", specs=("exp:gamma=0.5",), n=100, reps=10,
            k_grid=(1, 50)))


def test_exponential_limit_exact_law_and_convergence():
    reps = 2 * 10**4
    cfg = ex.ExperimentConfig(
        experiment="exp_limit", specs=("exp:gamma=0.5", "unif:gamma=0.5"),
        reps=reps, master_seed=26, n_grid=(50, 200, 2000))
    table = ex.run_exponential_limit(cfg)
    assert len(table.rows) == 3
    ks_exp = table.column("exp:gamma=0.5_ks")
    crit = table.column("ks_critical")
    for v, c in zip(ks_exp, crit):
        assert v < c  # the exponential case is exact at every n
    ks_unif = table.column("unif:gamma=0.5_ks")
    noise = 2.0 / math.sqrt(reps)
    assert ks_unif[1] <= ks_unif[0] + noise
    assert ks_unif[2] <= ks_unif[1] + noise
    assert ks_unif[2] < 0.02


def test_exponential_limit_cross_moments():
    reps = 2 * 10**4
    cfg = ex.ExperimentConfig(
        experiment="exp_limit", specs=("unif:gamma=0.5",),
        reps=reps, master_seed=27, n_grid=(2000,))
    table = ex.run_exponential_limit(cfg)
    row = dict(zip(table.columns, table.rows[0]))
    assert abs(row["unif:gamma=0.5_corr"]) <= 0.02
    exact = float(cross_moment_recursion(rm.uniform(0.5), 2000)[2000])
    assert row["unif:gamma=0.5_m11_exact"] == pytest.approx(exact, rel=1e-12)
    # 4-standard-error band for the empirical product moment
    se = 4.0 * 0.6 / math.sqrt(reps)  # sd(X1 X2) < 0.6 for these laws
    assert abs(row["unif:gamma=0.5_m11"] - exact) <= se


def test_ld_check_columns_and_oracles():
    cfg = ex.ExperimentConfig(
        experiment="ld_check", specs=("exp:gamma=1",), reps=20000,
        master_seed=28, k_grid=(5, 20, 200), y=2.0)
    table = ex.run_ld_check(cfg)
    assert table.columns == ["k", "mc", "mc_se", "events", "insufficient", "exact", "limit"]
    rows = {row[0]: dict(zip(table.columns, row)) for row in table.rows}
    limit = -(1.0 - math.log(2.0))
    for k, row in rows.items():
        assert row["limit"] == pytest.approx(limit, rel=1e-9)
        assert row["exact"] == pytest.approx(exact_hill_tail(rm.exponential(1.0), k, 2.0) / k,
                                             rel=1e-12)
    assert rows[200]["insufficient"] == 1 and rows[200]["mc"] is None
    assert rows[5]["insufficient"] == 0
    assert rows[5]["mc"] == pytest.approx(rows[5]["exact"], abs=4.0 * rows[5]["mc_se"])


def test_ld_check_requires_single_spacing_law():
    with pytest.raises(ValueError):
        ex.run_ld_check(ex.ExperimentConfig(
            experiment="ld_check", specs=("exp:gamma=1", "unif:gamma=0.5"),
            reps=100, y=2.0))
    with pytest.raises(ValueError):
        ex.run_ld_check(ex.ExperimentConfig(
            experiment="ld_check", specs=("exp:gamma=1",), reps=100))  # y missing


_SMALL_CONFIGS = [
    ex.ExperimentConfig(experiment="variance_curve", specs=THREE_LAWS, n=100,
                        reps=40, master_seed=31, s_grid=(0.3, 0.797)),
    ex.ExperimentConfig(experiment="hill_plot", specs=("pareto:gamma=0.5,c=1",
                        "unif:gamma=0.5"), n=100, reps=1, master_seed=31, avg_seeds=8),
    ex.ExperimentConfig(experiment="coverage", specs=THREE_LAWS, n=100, reps=40,
                        master_seed=31, k_grid=(20, 100)),
    ex.ExperimentConfig(experiment="exp_limit", specs=("unif:gamma=0.5",),
                        reps=200, master_seed=31, n_grid=(50,)),
    ex.ExperimentConfig(experiment="ld_check", specs=("unif:gamma=0.5",),
                        reps=4000, master_seed=31, k_grid=(5, 10), y=0.6),
]


@pytest.mark.parametrize("cfg", _SMALL_CONFIGS, ids=lambda c: c.experiment)
def test_every_experiment_bit_identical_across_workers(cfg):
    outputs = []
    for workers in (1, 4, 8):
        table = ex.run_experiment(cfg, workers=workers)
        outputs.append((table.to_csv(), table.to_json()))
    assert outputs[0] == outputs[1] == outputs[2]


def test_meta_echoes_config_and_seed():
    cfg = _SMALL_CONFIGS[0]
    table = ex.run_variance_curve(cfg)
    assert table.meta["master_seed"] == 31
    echoed = ex.ExperimentConfig.from_text(table.meta["config"])
    assert echoed.experiment == "variance_curve"
    assert echoed.s_grid == (0.3, 0.797)
    assert table.wall_time_s >= 0.0
