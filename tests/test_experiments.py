"""Experiment harness: configs, tables, determinism, and statistical output."""

import csv
import io
import json
import math
import os
from functools import partial
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from renyitail import engine
from renyitail import estimators as est
from renyitail import experiments as ex
from renyitail import large_deviations as ld
from renyitail import rand_models as rm
from renyitail.estimators import h_function
from renyitail.large_deviations import exact_hill_tail
from renyitail.renyi import cross_moment_recursion, generalized_renyi, moment_recursion, psi_n

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


def test_config_integer_settings():
    # int() would truncate these silently, and a numpy int would reach to_text()'s json
    for bad in ({"n": 2.5}, {"reps": 10.0}, {"k_grid": (7.5, 20)}, {"n_grid": (50.7,)}):
        with pytest.raises(ValueError, match="must be an integer"):
            ex.ExperimentConfig(experiment="coverage", specs=THREE_LAWS, **bad)
    cfg = ex.ExperimentConfig(experiment="coverage", specs=THREE_LAWS, n=np.int64(100),
                              reps=np.int32(10), k_grid=(np.int64(20),))
    assert type(cfg.n) is type(cfg.reps) is type(cfg.k_grid[0]) is int
    assert ex.ExperimentConfig.from_text(cfg.to_text()) == cfg


def test_coverage_k_range_checked_by_the_run():
    # the config does not know the k range; run_coverage checks it against n
    cfg = ex.ExperimentConfig(experiment="coverage", specs=THREE_LAWS, n=100, reps=10,
                              k_grid=(20, 101))
    with pytest.raises(ValueError, match="k must lie in"):
        ex.run_coverage(cfg)


def test_config_from_text_rejects_unknown_keys():
    text = ex.ExperimentConfig(experiment="coverage", specs=THREE_LAWS).to_text()
    payload = json.loads(text)
    payload.update(bogus=1, avg_seeds=1)
    with pytest.raises(ValueError, match="unknown config keys: avg_seeds, bogus"):
        ex.ExperimentConfig.from_text(json.dumps(payload))


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


def _strict_json(text):
    """json.loads that rejects NaN, Infinity and -Infinity, as jq and JSON.parse do."""
    def reject(constant):
        raise ValueError(f"non-standard JSON constant {constant}")
    return json.loads(text, parse_constant=reject)


def test_report_table_json_has_no_non_standard_constants():
    t = ex.ReportTable(["a", "b", "c"], [(math.inf, -math.inf, math.nan),
                                         (np.float32("inf"), np.float64("-inf"), 1.5)], {})
    rows = _strict_json(t.to_json())["rows"]
    assert rows == [{"a": "inf", "b": "-inf", "c": None}, {"a": "inf", "b": "-inf", "c": 1.5}]
    assert [line.split(",") for line in t.to_csv().splitlines()[1:]] == [
        ["inf", "-inf", "nan"], ["inf", "-inf", "1.5"]]  # the CSV's own text
    with pytest.raises(ValueError):  # nothing non-standard gets out, not even through meta
        ex.ReportTable(["a"], [(1.0,)], {"x": math.inf}).to_json()


def test_report_table_numpy_scalar_cells_emit_cleanly():
    t = ex.ReportTable(["k", "v"], [(np.int64(3), np.float64(0.25))], {})
    lines = t.to_csv().splitlines()
    assert lines[1] == "3,0.25"
    row = json.loads(t.to_json())["rows"][0]
    assert row["v"] == 0.25


def _reference_tables(columns, rows, meta):
    """Reference writer that formats each cell in Python: None as "", any float
    (numpy ones included) by the repr of its float64 value, the rest by str."""

    def cell(value):
        if value is None:
            return ""
        if isinstance(value, (float, np.floating)):
            return repr(float(value))
        return str(value)

    def json_cell(value):
        if isinstance(value, np.generic):
            value = value.item()
        if isinstance(value, float) and math.isnan(value):
            return None
        if isinstance(value, float) and math.isinf(value):
            return cell(value)  # the CSV text, "inf" or "-inf"
        return value

    buf = io.StringIO()
    for key in sorted(meta):
        buf.write(f"# {key}={meta[key]}\r\n")
    writer = csv.writer(buf)
    writer.writerow(columns)
    for row in rows:
        writer.writerow([cell(v) for v in row])
    json_rows = [{k: json_cell(v) for k, v in zip(columns, row)} for row in rows]
    return buf.getvalue(), json.dumps({"meta": meta, "rows": json_rows}, sort_keys=True,
                                      allow_nan=False)


_EDGE_FLOATS = (math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 2.2250738585072014e-308 / 3,
                0.1, 1e16, 1e-7)
_CELLS = st.one_of(
    st.floats(),
    st.sampled_from(_EDGE_FLOATS),
    st.floats(width=32).map(np.float32),
    st.sampled_from(_EDGE_FLOATS).map(np.float32),
    st.floats().map(np.float64),
    st.integers(-2**63, 2**63 - 1).map(np.int64),
    st.booleans().map(np.bool_),
    st.booleans(),
    st.none(),
    st.integers(),
    st.text(st.sampled_from('a,"\r\n \'#\t'), max_size=6),
)


@st.composite
def _tables(draw):
    width = draw(st.integers(1, 4))
    rows = draw(st.lists(st.tuples(*[_CELLS] * width), max_size=6))
    return [f"c{j}" for j in range(width)], rows


@settings(derandomize=True, max_examples=300, deadline=None)
@given(_tables())
@example((["only"], [(None,), ("",), (None,)]))
@example((["f32", "f64"], [(np.float32(0.1), np.float64(0.1)), (np.float32("nan"), -0.0)]))
@example((["f32", "i64", "b"], [(np.float32(0.1), np.int64(-2**63), np.bool_(True)),
                                (np.float64(1e-7), np.int64(7), np.bool_(False))]))
def test_report_table_matches_per_cell_writer(table):
    columns, rows = table
    meta = {"master_seed": 3, "config": "{}"}
    expected_csv, expected_json = _reference_tables(columns, rows, meta)
    t = ex.ReportTable(columns, list(rows), dict(meta))
    assert t.to_csv() == expected_csv
    assert t.to_json() == expected_json


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
    base = engine._stream_base(tag)
    return np.asarray([fn(engine.SeedSpec(seed, base + i).generator())
                       for i in range(start, start + reps)])


def test_stream_reuse_leaves_partial_buffers():
    """Premise of the equivalence test: replications end mid-buffer, so a
    re-key that skipped has_uint32 or buffer_pos would leak state."""
    ends = []
    for i in range(8):
        rng = engine.SeedSpec(7, i).generator()
        _mixed_draws(rng)
        ends.append(rng.bit_generator.state)
    assert any(st["has_uint32"] == 1 for st in ends)
    assert any(st["buffer_pos"] < 4 for st in ends)  # 4 = block used up


@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize("start,reps", [(0, 25), (7, 19)])
def test_replication_map_matches_fresh_streams(workers, start, reps):
    got = ex.replication_map(_mixed_draws, reps, 7, "tag/eq", workers=workers, start=start)
    assert np.array_equal(got, _reference(_mixed_draws, reps, 7, "tag/eq", start=start))


@st.composite
def _splits(draw):
    reps = draw(st.integers(2, 40))
    return reps, draw(st.integers(1, reps - 1))


def test_replication_map_split_at_odd_start_matches_fresh_streams():
    full = _reference(_mixed_draws, 30, 11, "tag/split")
    head = ex.replication_map(_mixed_draws, 13, 11, "tag/split", workers=2)
    tail = ex.replication_map(_mixed_draws, 17, 11, "tag/split", workers=3, start=13)
    assert np.array_equal(np.vstack([head, tail]), full)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(_splits(), st.integers(1, 8), st.integers(1, 8))
@example((20, 10), 1, 1)
def test_replication_map_split_and_merge(split, head_workers, tail_workers):
    """A range split at any point, each part run with any worker count,
    concatenates to the fresh streams of the whole range."""
    reps, at = split
    head = ex.replication_map(_mixed_draws, at, 11, "tag/split", workers=head_workers)
    tail = ex.replication_map(_mixed_draws, reps - at, 11, "tag/split",
                              workers=tail_workers, start=at)
    assert np.array_equal(np.vstack([head, tail]), _reference(_mixed_draws, reps, 11, "tag/split"))


def test_replication_map_range_checked_before_any_replication():
    calls = []

    def fn(rng):
        calls.append(1)
        return rng.random()

    room = 2**64 - engine._stream_base("tag/edge")  # streams left under this tag
    for kwargs in ({"master_seed": -1}, {"master_seed": 2**64},
                   {"master_seed": 7, "start": room - 4}):
        with pytest.raises(ValueError, match="64 unsigned bits"):
            ex.replication_map(fn, 5, tag="tag/edge", **kwargs)
    assert calls == []
    # the last representable streams are still reachable, with any worker count
    expected = _reference(fn, 5, 7, "tag/edge", start=room - 5)
    for workers in (1, 2):
        got = ex.replication_map(fn, 5, 7, "tag/edge", workers=workers, start=room - 5)
        assert np.array_equal(got, expected)


@pytest.mark.parametrize("start", [-1, -2, -engine._stream_base("tag/edge") - 1])
def test_negative_start_is_rejected_before_any_replication(start):
    # a negative start would reach the streams below the tag's own range
    calls = []
    with pytest.raises(ValueError, match="start must be at least 0"):
        ex.replication_map(calls.append, 3, 7, "tag/edge", start=start)
    assert calls == []


def test_replication_map_matches_fresh_philox_at_the_key_edges():
    """The plain-int re-key reaches the top of both 64-bit key words."""
    room = 2**64 - engine._stream_base("tag/top")
    for seed, start in ((2**64 - 1, 0), (2**64 - 1, room - 6)):  # the latter ends at 2^64-1
        base = engine._stream_base("tag/top") + start
        fresh = np.asarray([
            _mixed_draws(np.random.Generator(np.random.Philox(
                key=np.array([seed, base + i], dtype=np.uint64))))
            for i in range(6)])
        for workers in (1, 2):
            got = ex.replication_map(_mixed_draws, 6, seed, "tag/top", workers=workers,
                                     start=start)
            assert np.array_equal(got, fresh)


@pytest.mark.parametrize("seed", [7.5, 7.0, -1, 2**64], ids=repr)
def test_seed_must_be_an_integer_in_64_bits(seed):
    calls = []
    with pytest.raises(ValueError, match="master_seed must"):
        ex.replication_map(calls.append, 3, seed, "tag/seed")
    with pytest.raises(ValueError, match="master_seed must"):
        ex.ExperimentConfig(experiment="ld_check", specs=("exp:gamma=1",), master_seed=seed)
    with pytest.raises(ValueError, match="master_seed must"):
        engine.SeedSpec(seed)
    with pytest.raises(ValueError, match="stream_index must"):
        engine.SeedSpec(7, seed)
    assert calls == []


@pytest.mark.parametrize("name, value", [("reps", 5.0), ("reps", 0.5), ("start", 0.5),
                                         ("start", 2.0), ("workers", 1.5), ("workers", 2.0)])
def test_replication_map_counts_must_be_integers(name, value):
    calls = []
    kwargs = {"reps": 5, "master_seed": 7, "tag": "tag/count", name: value}
    with pytest.raises(ValueError, match=f"{name} must be an integer"):
        ex.replication_map(calls.append, **kwargs)
    assert calls == []


@pytest.mark.parametrize("workers", [0, -5])
def test_workers_below_one_are_rejected(workers, monkeypatch):
    def no_fork():
        raise AssertionError("forked before checking workers")

    monkeypatch.setattr(os, "fork", no_fork)
    calls = []
    with pytest.raises(ValueError, match="workers must be at least 1"):
        ex.replication_map(calls.append, 3, 7, "t", workers=workers)
    # at 20 reps every k is declined, so no job runs, yet workers is still checked
    cfg = ex.ExperimentConfig(experiment="ld_check", specs=("exp:gamma=1",), reps=20, y=1.5)
    with pytest.raises(ValueError, match="workers must be at least 1"):
        ex.run_experiment(cfg, workers=workers)
    assert calls == []


_EXP = rm.exponential(1.0)


def _config(**kwargs):
    return ex.ExperimentConfig(experiment="coverage", specs=THREE_LAWS, **kwargs)


# (call of one count, its name, its minimum, the message below the minimum);
# calls append to `ran` from any replication they start
_COUNTS = {
    "replication_map reps": (lambda v, ran: ex.replication_map(ran.append, v, 7, "tag/c"),
                             "reps", 1, None),
    "replication_map start": (lambda v, ran: ex.replication_map(ran.append, 3, 7, "tag/c",
                                                                start=v), "start", 0, None),
    "replication_map workers": (lambda v, ran: ex.replication_map(ran.append, 3, 7, "tag/c",
                                                                  workers=v), "workers", 1, None),
    "mc_tail_logprob k": (lambda v, ran: ld.mc_tail_logprob(_EXP, v, 1.5, 10**5,
                                                            engine.SeedSpec(7), workers=2),
                          "k", 1, None),
    "mc_tail_logprob reps": (lambda v, ran: ld.mc_tail_logprob(_EXP, 1, 1.5, v,
                                                               engine.SeedSpec(7), workers=2),
                             "reps", 1, None),
    "config n": (lambda v, ran: _config(n=v), "n", 1, None),
    "config reps": (lambda v, ran: _config(reps=v), "reps", 1, None),
    "config k grid": (lambda v, ran: _config(k_grid=(10, v)), "k grid entry", 1, None),
    "config n grid": (lambda v, ran: _config(n_grid=(50, v)), "n grid entry", 2, None),
    "exact_hill_tail k": (lambda v, ran: exact_hill_tail(_EXP, v, 1.5), "k", 1, None),
    "moment order": (lambda v, ran: rm.moment(_EXP, v), "moment order", 1, None),
    "psi_n n": (lambda v, ran: psi_n(_EXP, v, 0.3), "n", 1, None),
    "moment_recursion k_max": (lambda v, ran: moment_recursion(_EXP, v, 10), "k_max", 1, None),
    "moment_recursion n": (lambda v, ran: moment_recursion(_EXP, 2, v), "n", 1, None),
    "cross_moment_recursion n": (lambda v, ran: cross_moment_recursion(_EXP, v), "n", 2, None),
    "SeedSpec master_seed": (lambda v, ran: engine.SeedSpec(v), "master_seed", 0,
                             "master_seed must fit in 64 unsigned bits"),
    "SeedSpec stream_index": (lambda v, ran: engine.SeedSpec(7, v), "stream_index", 0,
                              "stream_index must fit in 64 unsigned bits"),
}


@pytest.mark.parametrize("site", sorted(_COUNTS))
def test_every_count_is_an_integer_at_least_its_minimum(site, monkeypatch):
    """A fraction, a bool and minimum - 1 each fail at the boundary, before
    any replication runs or any process forks."""
    call, name, minimum, below = _COUNTS[site]

    def no_fork():
        raise AssertionError("forked before checking the counts")

    monkeypatch.setattr(os, "fork", no_fork)
    ran = []
    for value in (2.5, True, False, np.bool_(True)):
        with pytest.raises(ValueError, match=f"^{name} must be an integer$"):
            call(value, ran)
    with pytest.raises(ValueError, match=f"^{below or f'{name} must be at least {minimum}'}$"):
        call(minimum - 1, ran)
    assert ran == []


@pytest.mark.parametrize("seed", [np.uint64(7), np.int64(7), 7], ids=repr)
def test_numpy_integer_seeds_act_as_ints(seed):
    cfg = ex.ExperimentConfig(experiment="ld_check", specs=("exp:gamma=1",), master_seed=seed)
    assert type(cfg.master_seed) is int
    assert json.loads(cfg.to_text())["master_seed"] == 7
    assert ex.ExperimentConfig.from_text(cfg.to_text()) == cfg
    fn = lambda rng: rng.random(2)
    assert np.array_equal(ex.replication_map(fn, 4, seed, "tag/np"),
                          ex.replication_map(fn, 4, 7, "tag/np"))
    assert engine.SeedSpec(seed, np.uint64(3)) == engine.SeedSpec(7, 3)


def _pids(reps, workers):
    fn = lambda rng: os.getpid()
    return set(ex.replication_map(fn, reps, 7, "tag/pid", workers=workers).tolist())


needs_fork = pytest.mark.skipif(not hasattr(os, "fork"), reason="no os.fork here")


@needs_fork
def test_replication_map_runs_spans_in_forked_children(monkeypatch):
    monkeypatch.setattr(engine, "_usable_cpus", lambda: 2)
    pids = _pids(10, workers=2)
    assert len(pids) == 2 and os.getpid() in pids


@needs_fork
def test_replication_map_caps_spans_at_cpus_and_reps(monkeypatch):
    monkeypatch.setattr(engine, "_usable_cpus", lambda: 2)
    assert len(_pids(200, workers=64)) <= 2
    assert _pids(1, workers=2) == {os.getpid()}


def test_replication_map_runs_serially_without_fork(monkeypatch):
    monkeypatch.setattr(engine, "_usable_cpus", lambda: 2)
    monkeypatch.delattr(os, "fork", raising=False)
    assert _pids(10, workers=2) == {os.getpid()}


class _TwoArgError(Exception):
    """Pickles, but cannot be rebuilt from its args: unpickling calls it with one."""

    def __init__(self, a, b):
        super().__init__(f"{a} and {b}")


@needs_fork
@pytest.mark.parametrize("where,error,message", [
    ("child", ValueError, "bad replication in span 2"),
    ("parent", ValueError, "bad replication in span 1"),
    ("child-exit", RuntimeError, "exited without a result"),  # a ReplicationError
    ("child-fold", ValueError, "bad fold in span 2"),
    ("child-unrebuildable", engine.ReplicationError, "raised _TwoArgError: x and y"),
    ("child-unpicklable", engine.ReplicationError, "raised ValueError: <function"),
])
def test_replication_map_failure_reaps_every_child(monkeypatch, where, error, message):
    monkeypatch.setattr(engine, "_usable_cpus", lambda: 2)
    parent = os.getpid()

    def fn(rng):
        in_parent = os.getpid() == parent
        if where == "child-exit" and not in_parent:
            os._exit(3)
        if where in ("child", "parent") and in_parent == (where == "parent"):
            raise ValueError(f"bad replication in span {1 if in_parent else 2}")
        if where == "child-unrebuildable" and not in_parent:
            raise _TwoArgError("x", "y")
        if where == "child-unpicklable" and not in_parent:
            raise ValueError(lambda: 0)
        return rng.random()

    def fold(block):
        if os.getpid() != parent:
            raise ValueError("bad fold in span 2")
        return block

    with pytest.raises(error, match=message):
        ex.replication_map(fn, 10, 7, "tag/fail", workers=2,
                           fold=fold if where == "child-fold" else None)
    with pytest.raises(ChildProcessError):  # no child is left, not even a zombie
        os.waitpid(-1, os.WNOHANG)


def _fork_counter(monkeypatch):
    """A list that gains one entry per os.fork call made in this process."""
    forks, fork = [], os.fork
    parent = os.getpid()

    def counting_fork():
        if os.getpid() == parent:
            forks.append(1)
        return fork()

    monkeypatch.setattr(os, "fork", counting_fork)
    return forks


@needs_fork
def test_replications_share_one_fork_across_jobs(monkeypatch):
    """Jobs of unequal size, some with fewer replications than spans, each
    give their replication_map result, from one fork per span after the first."""
    monkeypatch.setattr(engine, "_usable_cpus", lambda: 3)
    jobs = [engine._Job(_mixed_draws, 7, "tag/a"),
            engine._Job(_mixed_draws, 1, "tag/b", start=5),
            engine._Job(_mixed_draws, 2, "tag/c", fold=_row_sums),
            engine._Job(_mixed_draws, 30, "tag/a", 7)]
    expected = [ex.replication_map(job.fn, job.reps, 7, job.tag, start=job.start, fold=job.fold)
                for job in jobs]
    forks = _fork_counter(monkeypatch)
    got = list(engine._replications(jobs, 7, workers=3))
    assert len(forks) == 2
    assert len(got) == len(expected)
    for a, b in zip(got, expected):
        assert np.array_equal(a, b)
    assert list(engine._replications([], 7, workers=3)) == [] and len(forks) == 2
    with pytest.raises(ChildProcessError):  # no child is left, not even a zombie
        os.waitpid(-1, os.WNOHANG)


@needs_fork
@pytest.mark.parametrize("where", ["fn", "fold", "consumer"])
def test_replications_failure_reaps_every_child(monkeypatch, where):
    """A failure in any job of a multi-job run is re-raised and reaps every
    child: fn or fold raising in a child during the second of three jobs, or
    the consumer raising after the first job while a child is still working,
    or blocked writing a part bigger than the pipe's buffer."""
    monkeypatch.setattr(engine, "_usable_cpus", lambda: 3)
    parent = os.getpid()

    def fn(tag, rng):
        if where == "fn" and tag == "tag/2" and os.getpid() != parent:
            raise ValueError("bad replication in job 2")
        return rng.random(512)  # 4 kB a replication: a 100-replication part fills a pipe

    def fold(tag, block):
        if where == "fold" and tag == "tag/2" and os.getpid() != parent:
            raise ValueError("bad fold in job 2")
        return block

    jobs = [engine._Job(partial(fn, f"tag/{j}"), 300, f"tag/{j}", fold=partial(fold, f"tag/{j}"))
            for j in (1, 2, 3)]
    seen = []
    with pytest.raises(ValueError, match="job 2" if where != "consumer" else "consumer"):
        for result in engine._replications(jobs, 7, workers=3):
            seen.append(len(result))
            if where == "consumer":
                raise ValueError("consumer failed between jobs")
    assert seen == [300]
    with pytest.raises(ChildProcessError):  # no child is left, not even a zombie
        os.waitpid(-1, os.WNOHANG)


def _one_fork_runs():
    """(config, spans at 3 usable CPUs and 3 workers) for every experiment."""
    runs = [
        (ex.ExperimentConfig(experiment="variance_curve", specs=THREE_LAWS, n=50, reps=20,
                             s_grid=(0.3, 0.5, 0.9)), 3),
        (ex.ExperimentConfig(experiment="hill_plot", specs=THREE_LAWS, n=40, reps=5), 3),
        (ex.ExperimentConfig(experiment="hill_plot", specs=THREE_LAWS, n=40, reps=1), 1),
        (ex.ExperimentConfig(experiment="coverage", specs=THREE_LAWS, n=100, reps=20,
                             k_grid=(10, 50)), 3),
        (ex.ExperimentConfig(experiment="exp_limit", specs=THREE_LAWS, n_grid=(50, 200),
                             reps=20), 3),
        (ex.ExperimentConfig(experiment="ld_check", specs=("exp:gamma=1",), y=1.5, reps=2000,
                             k_grid=(5, 10, 400)), 3),  # k = 400 is declined: no job
        # at 2 replications every k is declined, so the run has no job and no fork
        (ex.ExperimentConfig(experiment="ld_check", specs=("exp:gamma=1",), y=1.5, reps=2,
                             k_grid=(5, 10)), 1),
    ]
    return [pytest.param(cfg, spans, id=f"{cfg.experiment}-reps{cfg.reps}") for cfg, spans in runs]


@needs_fork
@pytest.mark.parametrize("cpus", [2, 3])
@pytest.mark.parametrize("workers", [2, 3])
@pytest.mark.parametrize("cfg,spans", _one_fork_runs())
def test_every_experiment_forks_once_per_run(monkeypatch, cfg, spans, cpus, workers):
    """A run forks one process per span after the first, for all its laws,
    k values and sizes, reaps them all, and writes the one-worker bytes."""
    monkeypatch.setattr(engine, "_usable_cpus", lambda: cpus)
    expected = ex.run_experiment(cfg, workers=1).to_csv()
    forks = _fork_counter(monkeypatch)
    got = ex.run_experiment(cfg, workers=workers).to_csv()
    assert len(forks) == min(spans, cpus, workers) - 1
    assert got == expected
    with pytest.raises(ChildProcessError):  # no child is left, not even a zombie
        os.waitpid(-1, os.WNOHANG)


def _one_law_at_a_time(jobs, master_seed, workers):
    """The engine as one replication_map call per job: one law's results at a time."""
    for job in jobs:
        yield ex.replication_map(job.fn, job.reps, master_seed, job.tag, workers=workers,
                                 start=job.start, fold=job.fold)


@needs_fork
def test_one_fork_run_holds_one_law_at_a_time(monkeypatch):
    """The parent reduces each law before it reads the next one's parts: at
    desk size its peak stays within 1 MB of a run made one law at a time."""
    import tracemalloc

    monkeypatch.setattr(engine, "_usable_cpus", lambda: 2)
    cfg = ex.ExperimentConfig(experiment="variance_curve", specs=THREE_LAWS, n=1000, reps=1000)

    def peak_mb():
        tracemalloc.start()
        try:
            table = ex.run_variance_curve(cfg, workers=2)
            return tracemalloc.get_traced_memory()[1] / 2**20, table.to_csv()
        finally:
            tracemalloc.stop()

    peak, table = peak_mb()
    with monkeypatch.context() as m:
        m.setattr(ex, "_replications", _one_law_at_a_time)
        bound, expected = peak_mb()
    assert table == expected
    assert peak <= bound + 1.0, (peak, bound)


def _row_sums(block):
    return np.add.reduce(block, axis=1)


@needs_fork
@pytest.mark.parametrize("fold", [_row_sums, lambda block: block[:, ::3] * 0.5], ids=["1d", "2d"])
def test_replication_map_fold_is_fold_of_the_stack(monkeypatch, fold):
    """Over two full blocks and a part one, the stacked blocks are the fresh
    streams, and fold=f gives f of them at any worker count and for a range
    split at a block edge or inside a block."""
    monkeypatch.setattr(engine, "_usable_cpus", lambda: 3)
    reps = 2 * engine._BLOCK + 5
    stacked = ex.replication_map(_mixed_draws, reps, 7, "tag/fold")
    assert np.array_equal(stacked, _reference(_mixed_draws, reps, 7, "tag/fold"))
    expected = fold(stacked)
    for workers in (1, 2, 3):
        got = ex.replication_map(_mixed_draws, reps, 7, "tag/fold", workers=workers, fold=fold)
        assert np.array_equal(got, expected), workers
    for at in (1, engine._BLOCK - 1, engine._BLOCK, engine._BLOCK + 700):
        head = ex.replication_map(_mixed_draws, at, 7, "tag/fold", workers=2, fold=fold)
        tail = ex.replication_map(_mixed_draws, reps - at, 7, "tag/fold", workers=3,
                                  start=at, fold=fold)
        assert np.array_equal(np.concatenate([head, tail]), expected), at


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("fold", [lambda block: block[1:], np.sum, lambda block: 0.0],
                         ids=["short", "scalar", "float"])
def test_replication_map_fold_must_keep_one_entry_per_row(monkeypatch, fold, workers):
    monkeypatch.setattr(engine, "_usable_cpus", lambda: 2)
    with pytest.raises(ValueError, match="fold returned shape"):
        ex.replication_map(lambda rng: rng.random(2), 10, 7, "tag/rows", workers=workers, fold=fold)


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


@pytest.mark.parametrize("experiment", ["variance_curve", "exp_limit"])
def test_variance_runs_reject_a_single_rep(monkeypatch, experiment):
    # one replication has no sample variance (figure 1) or correlation (t1):
    # the run refuses it before it forks
    monkeypatch.setattr(ex, "_replications", None)  # a fork attempt would raise TypeError
    cfg = ex.ExperimentConfig(experiment=experiment, specs=("unif:gamma=0.5",), n=50, reps=1,
                              master_seed=5, s_grid=(0.5,), n_grid=(50,))
    with pytest.raises(ValueError, match="at least 2 replications"):
        ex.run_experiment(cfg, workers=2)


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
        experiment="hill_plot", specs=THREE_LAWS, n=2000, reps=100,
        master_seed=21)
    table = ex.run_hill_plot(cfg)
    assert len(table.rows) == 2000
    last = table.rows[-1]
    assert last[0] == 2000
    for v in last[1:]:
        assert abs(v - 0.5) <= 0.01


def test_hill_plot_hall_bias_grows_with_k():
    cfg = ex.ExperimentConfig(
        experiment="hill_plot", specs=("hall",), n=5000, reps=100,
        master_seed=22)
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


def test_coverage_hall_spacing_interval_at_small_k():
    # hall is off the model, but at k << n its top spacings follow it, so the
    # spacing interval holds its level there when sigma_hat is read off the
    # same top k as the Hill estimate
    cfg = ex.ExperimentConfig(experiment="coverage", specs=("hall",), n=2000, reps=400,
                              master_seed=7, k_grid=(20, 50))
    for cov in ex.run_coverage(cfg).column("hall_spacing"):
        assert cov >= 0.75


def test_coverage_rejects_k_below_two():
    with pytest.raises(ValueError):
        ex.run_coverage(ex.ExperimentConfig(
            experiment="coverage", specs=("exp:gamma=0.5",), n=100, reps=10,
            k_grid=(1, 50)))


@pytest.mark.parametrize("workers", [1, 2])
def test_coverage_kernels_match_public_estimators(workers):
    # run_coverage checks its grid once and calls the private kernels; the
    # public hill/spacing_sigma on the same streams must give the same table,
    # and the kernels the same values bit for bit
    n, k_grid = 60, (2, 7, 30, 60)
    cfg = ex.ExperimentConfig(experiment="coverage", specs=("unif:gamma=0.5", "pareto:gamma=0.5,c=1"),
                              n=n, reps=30, master_seed=41, k_grid=k_grid)
    table = ex.run_coverage(cfg, workers=workers)
    ks = np.array(k_grid)
    unit = est.half_width(1.0, ks, cfg.eps)

    def reference(spec, rng):
        # the zhat the table reads; the public estimators read only h.n and h.zhat
        h = SimpleNamespace(n=n, zhat=ex._zhat_for(spec, rng, n))
        gh, sig = est.hill(h, ks), est.spacing_sigma(h, ks)
        kernel_gh, kernel_sig = est._hill_sigma(h.zhat, ks - 1, ks.astype(np.float64), n)
        assert np.array_equal(kernel_gh, gh)
        assert np.array_equal(kernel_sig, sig)
        assert [est.hill(h, int(k)) for k in ks] == gh.tolist()
        assert [est.spacing_sigma(h, int(k)) for k in ks] == sig.tolist()
        dev = np.abs(gh - spec.gamma)
        return np.concatenate([(dev <= sig * unit), (dev <= gh * unit)])

    for spec in cfg.specs:
        freq = np.mean(ex.replication_map(partial(reference, spec), cfg.reps, cfg.master_seed,
                                          f"coverage/{spec.canonical()}"), axis=0)
        assert table.column(f"{spec.canonical()}_spacing") == freq[:len(ks)].tolist()
        assert table.column(f"{spec.canonical()}_self") == freq[len(ks):].tolist()


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


@pytest.mark.parametrize("workers", [1, 2])
def test_variance_curve_builds_x_by_generalized_renyi(workers):
    # figure 1's cells, rebuilt from fresh streams with draw + generalized_renyi
    # and the public quantile estimator, agree bit for bit
    n, s_grid = 200, (0.1, 0.5, 0.797, 0.95)
    cfg = ex.ExperimentConfig(experiment="variance_curve", specs=THREE_LAWS, n=n, reps=4,
                              master_seed=13, s_grid=s_grid)
    table = ex.run_variance_curve(cfg, workers=workers)
    for spec in cfg.specs:
        vals = _reference(lambda rng: est.quantile_estimator(
            generalized_renyi(rm.draw(spec, rng, n)), s_grid), cfg.reps, cfg.master_seed,
            f"variance_curve/{spec.canonical()}")
        scaled = math.sqrt(n) * (vals - spec.gamma) / math.sqrt(spec.variance)
        assert table.column(spec.canonical()) == np.var(scaled, axis=0, ddof=1).tolist()


@pytest.mark.parametrize("workers", [1, 2])
def test_exponential_limit_builds_x_by_generalized_renyi(workers):
    # t1's Monte Carlo cells, rebuilt from fresh streams with draw +
    # generalized_renyi at two random distinct indices, agree bit for bit
    n_grid = (50, 200)
    cfg = ex.ExperimentConfig(experiment="exp_limit", specs=("unif:gamma=0.5", "exp:gamma=0.5"),
                              reps=4, master_seed=13, n_grid=n_grid)
    table = ex.run_exponential_limit(cfg, workers=workers)

    def pair(spec, m, rng):
        x = generalized_renyi(rm.draw(spec, rng, m))
        i, j = int(rng.integers(m)), int(rng.integers(m - 1))
        return x[i], x[j + (j >= i)]

    for spec in cfg.specs:
        tag = spec.canonical()
        for m, corr, m11 in zip(n_grid, table.column(f"{tag}_corr"), table.column(f"{tag}_m11")):
            vals = _reference(partial(pair, spec, m), cfg.reps, cfg.master_seed,
                              f"exp_limit/{tag}/n={m}")
            v1, v2 = vals[:, 0], vals[:, 1]
            assert (corr, m11) == (float(np.corrcoef(v1, v2)[0, 1]), float(np.mean(v1 * v2)))


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


@pytest.mark.parametrize("workers", [1, 2])
def test_ld_check_rows_are_mc_tail_logprob(monkeypatch, workers):
    """Each ld row's Monte Carlo cells are mc_tail_logprob's result for its k,
    declined k values included (here 3 of the desk grid's 7 run)."""
    monkeypatch.setattr(engine, "_usable_cpus", lambda: 2)
    cfg = ex.ExperimentConfig(experiment="ld_check", specs=("exp:gamma=1",), y=1.5,
                              reps=4000, master_seed=11)
    table = ex.run_ld_check(cfg, workers=workers)
    spec, seed = rm.exponential(1.0), engine.SeedSpec(11)
    declined = 0
    for k, mc, mc_se, events, insufficient, *_ in table.rows:
        res = ld.mc_tail_logprob(spec, k, 1.5, 4000, seed)
        assert (mc, mc_se, events, insufficient) == (
            res.estimate, res.std_error, res.events, int(res.insufficient)), k
        declined += res.insufficient
    assert [row[0] for row in table.rows] == [5, 10, 20, 50, 100, 200, 400]
    assert declined == 4


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
                        "unif:gamma=0.5"), n=100, reps=8, master_seed=31),
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
