"""Seeded Monte Carlo experiments with deterministic parallel execution.

Replication i of an experiment tagged ``tag`` draws from the Philox stream
``crc32(tag) * 2^32 + i`` under the run's master seed, and results are
folded in replication order, so a report is bit-identical for any worker
count and replication ranges can be split across runs and merged.
"""

from __future__ import annotations

import csv
import io
import json
import math
from contextlib import closing
from dataclasses import MISSING, dataclass, fields
from functools import partial
from itertools import chain

import numpy as np

from . import estimators
from ._special import KS_CRITICAL_1PCT
from .engine import SeedSpec, _Job, _replications, replication_map
from .large_deviations import _tail_rate, exact_hill_tail
from .rand_models import DistributionSpec, _index, _real, draw, parse_spec, support
from .renyi import HeavySample, _model_zhat, cross_moment_recursion, generalized_renyi

__all__ = [
    "DEFAULT_SEED",
    "ExperimentConfig",
    "ReportTable",
    "replication_map",
    "default_s_grid",
    "default_k_grid",
    "MCTailResult",
    "mc_tail_logprob",
    "run_experiment",
]

DEFAULT_SEED = 7


def default_s_grid() -> tuple[float, ...]:
    """Quantile levels 0.2(0.001)0.989."""
    return tuple(0.2 + 0.001 * i for i in range(790))


def default_k_grid(n: int) -> tuple[int, ...]:
    """50 log-spaced k values in [10, n] (fewer after deduplication)."""
    lo = min(10, n)
    ks = np.unique(np.round(np.logspace(math.log10(lo), math.log10(n), 50)).astype(int))
    return tuple(int(k) for k in ks)


def _sequence(value, name: str) -> tuple:
    """A sequence setting as a tuple: nonempty, and not one string or one number."""
    seq = () if isinstance(value, str) or not hasattr(value, "__iter__") else tuple(value)
    if not seq:
        raise ValueError(f"{name} must be a nonempty sequence, got {value!r}")
    return seq


def _unit(value, name: str) -> float:
    value = _real(value, name)
    if not 0.0 < value < 1.0:
        raise ValueError(f"{name} must lie in (0, 1)")
    return value


# how ExperimentConfig checks and stores each setting, in field order
_SETTINGS = {
    "n": lambda v: _index(v, "n", 1),
    "reps": lambda v: _index(v, "reps", 1),
    "eps": lambda v: _unit(v, "eps"),
    "master_seed": lambda v: SeedSpec(v).master_seed,  # SeedSpec owns the seed rule
    "s_grid": lambda v: tuple(_unit(s, "s grid entry") for s in _sequence(v, "s_grid")),
    "k_grid": lambda v: tuple(_index(m, "k grid entry", 1) for m in _sequence(v, "k_grid")),
    "n_grid": lambda v: tuple(_index(m, "n grid entry", 2) for m in _sequence(v, "n_grid")),
    "y": lambda v: _real(v, "threshold y"),
}


@dataclass(frozen=True)
class ExperimentConfig:
    """Parameters of one experiment run; round-trips through to_text().  The
    experiment's ``_EXPERIMENTS`` entry fills in each setting it reads."""

    experiment: str
    specs: tuple[DistributionSpec, ...]
    n: int | None = None
    reps: int | None = None
    eps: float | None = None
    master_seed: int | None = None
    s_grid: tuple[float, ...] | None = None
    k_grid: tuple[int, ...] | None = None
    n_grid: tuple[int, ...] | None = None
    y: float | None = None

    def __post_init__(self):
        if not isinstance(self.experiment, str) or self.experiment not in _EXPERIMENTS:
            raise ValueError(f"unknown experiment {self.experiment!r}")
        specs = tuple(parse_spec(s) if isinstance(s, str) else s
                      for s in _sequence(self.specs, "specs"))
        for i, spec in enumerate(specs):
            if not isinstance(spec, DistributionSpec):
                raise ValueError(f"specs entry {spec!r} is neither a law nor its text")
            if spec in specs[:i]:  # its columns would repeat, and its streams run twice
                raise ValueError(f"law {spec.canonical()} is given twice")
        object.__setattr__(self, "specs", specs)
        # a given setting is checked, then rejected if the experiment does not read it;
        # defaults fill in field order, n before the grids built from it
        reads = _EXPERIMENTS[self.experiment][1]
        for name, check in _SETTINGS.items():
            value = getattr(self, name)
            if value is None and name in reads:
                if reads[name] is None:
                    raise ValueError(f"threshold {name} is required")
                value = reads[name](self.n) if callable(reads[name]) else reads[name]
            if value is not None:
                object.__setattr__(self, name, check(value))
                if name not in reads:
                    raise ValueError(f"{self.experiment} does not read {name}")

    def to_text(self) -> str:
        """The experiment, its laws and the settings it reads, as one JSON line."""
        payload = {name: value for name, value in vars(self).items() if value is not None}
        payload["specs"] = [s.canonical() for s in self.specs]
        return json.dumps(payload, sort_keys=True)

    @classmethod
    def from_text(cls, text: str) -> "ExperimentConfig":
        payload = json.loads(text)
        if not isinstance(payload, dict):
            raise ValueError("config text must be a JSON object")
        unknown = sorted(set(payload) - {f.name for f in fields(cls)})
        if unknown:
            raise ValueError(f"unknown config keys: {', '.join(unknown)}")
        missing = [f.name for f in fields(cls) if f.default is MISSING and f.name not in payload]
        if missing:
            raise ValueError(f"config text lacks {', '.join(missing)}")
        return cls(**payload)  # __post_init__ turns the lists back into tuples


@dataclass
class ReportTable:
    """Column-named rows plus a reproducibility metadata block."""

    columns: list[str]
    rows: list[tuple]
    meta: dict

    def __post_init__(self):
        if set(map(len, self.rows)) - {len(self.columns)}:
            raise ValueError("row width does not match the column list")
        # csv writes a float by its repr and anything else by str, so numpy
        # scalars become plain Python values (float32 widened to float64) here
        if any(issubclass(t, np.generic) for t in set(map(type, chain.from_iterable(self.rows)))):
            self.rows = [tuple(_plain(v) for v in row) for row in self.rows]

    def write_csv(self, out) -> None:
        """Write '#'-prefixed meta lines, then an RFC-4180 header + rows, to ``out``."""
        for key in sorted(self.meta):
            out.write(f"# {key}={self.meta[key]}\r\n")
        writer = csv.writer(out)
        writer.writerow(self.columns)
        writer.writerows(self.rows)

    def to_csv(self) -> str:
        """The bytes of ``write_csv`` as one string."""
        buf = io.StringIO()
        self.write_csv(buf)
        return buf.getvalue()

    @staticmethod
    def _json_cell(value):
        """NaN as null and +-inf as the CSV's "inf"/"-inf": JSON has no such numbers."""
        if isinstance(value, float) and not math.isfinite(value):
            return None if math.isnan(value) else repr(value)
        return value

    def to_json(self) -> str:
        rows = [{k: self._json_cell(v) for k, v in zip(self.columns, row)}
                for row in self.rows]
        return json.dumps({"meta": self.meta, "rows": rows}, sort_keys=True, allow_nan=False)

    def column(self, name: str) -> list:
        idx = self.columns.index(name)
        return [row[idx] for row in self.rows]


def _plain(value):
    if isinstance(value, np.floating):
        return float(value)
    return value.item() if isinstance(value, np.generic) else value


def _meta(cfg: ExperimentConfig) -> dict:
    return {
        "experiment": cfg.experiment,
        "config": cfg.to_text(),
        "master_seed": cfg.master_seed,
    }


def _zhat_for(spec: DistributionSpec, rng, n: int) -> np.ndarray:
    """The scaled log-spacings zhat of one sample of size n: of the model, on the
    log scale and without forming w, for spacing laws (zhat does not depend on C);
    of the sorted iid draws above their support floor for comparison laws."""
    if spec.is_spacing_law:
        return _model_zhat(draw(spec, rng, n))
    return HeavySample(scale_c=support(spec)[0], w=np.sort(draw(spec, rng, n))).zhat


def _law_jobs(cfg: ExperimentConfig, one_rep, suffix: str = "") -> list[_Job]:
    """One job per law of the config: ``cfg.reps`` calls of ``one_rep(law, rng)``
    on the stream tag ``{experiment}/{law}{suffix}``."""
    return [_Job(partial(one_rep, spec), cfg.reps, f"{cfg.experiment}/{spec.canonical()}{suffix}")
            for spec in cfg.specs]


def _per_law(cfg: ExperimentConfig, one_rep, workers: int):
    """Yield each law of the config with the results of its ``_law_jobs`` job;
    the run forks its worker processes once, for all its laws."""
    with closing(_replications(_law_jobs(cfg, one_rep), cfg.master_seed, workers)) as results:
        yield from zip(cfg.specs, results)


def _rows(keys, columns) -> list[tuple]:
    """One row per key: the key, then its entry in each column, numpy columns
    converted to Python values once rather than cell by cell."""
    columns = [col.tolist() if isinstance(col, np.ndarray) else col for col in columns]
    return list(zip(keys, *columns))


def _require_spacing_laws(cfg: ExperimentConfig) -> None:
    if any(not s.is_spacing_law for s in cfg.specs):
        raise ValueError(f"{cfg.experiment} requires spacing laws")


def _require_two_reps(cfg: ExperimentConfig) -> None:
    if cfg.reps < 2:  # one replication has no sample variance or correlation
        raise ValueError(f"{cfg.experiment} needs at least 2 replications, got {cfg.reps}")


def _variance_curve(cfg: ExperimentConfig, workers: int) -> ReportTable:
    """Empirical variance of sqrt(n)(gamma_tilde(s) - gamma)/sd(Z) over the
    s grid, one column per spacing law, next to the theoretical h(s).
    """
    _require_spacing_laws(cfg)
    _require_two_reps(cfg)
    for spec in cfg.specs:
        if not spec.variance > 0.0:  # the statistic is scaled by 1/sd(Z)
            raise ValueError(f"{cfg.experiment} needs a law of positive variance, "
                             f"got {spec.canonical()}")
    n, s_grid = cfg.n, cfg.s_grid
    idx, denom = estimators._quantile_terms(n, s_grid)

    def one_rep(spec, rng):
        return generalized_renyi(draw(spec, rng, n))[idx] / denom

    cols = [[estimators.h_function(s) for s in s_grid]]
    for spec, vals in _per_law(cfg, one_rep, workers):
        scaled = math.sqrt(n) * (vals - spec.gamma) / math.sqrt(spec.variance)
        cols.append(np.var(scaled, axis=0, ddof=1))
    columns = ["s", "h"] + [s.canonical() for s in cfg.specs]
    return ReportTable(columns, _rows(s_grid, cols), _meta(cfg))


def _hill_plot(cfg: ExperimentConfig, workers: int) -> ReportTable:
    """Hill trajectory gamma_hat(k), k = 1..n, one column per law.

    Spacing laws give their log-spacings straight from x = generalized_renyi(z),
    with no w formed; Pareto-type laws are sampled iid and sorted.  Each
    trajectory is averaged over reps independent realizations.
    """
    n = cfg.n
    ks = np.arange(1, n + 1)
    idx = ks - 1

    def one_rep(spec, rng):
        return estimators._hill(_zhat_for(spec, rng, n), idx, ks, n)

    trajs = [np.mean(vals, axis=0) for _, vals in _per_law(cfg, one_rep, workers)]
    columns = ["k"] + [s.canonical() for s in cfg.specs]
    return ReportTable(columns, _rows(range(1, n + 1), trajs), _meta(cfg))


def _coverage(cfg: ExperimentConfig, workers: int) -> ReportTable:
    """Fraction of replications whose interval covers gamma, per k and law,
    for both the spacing-variance and the self-normalized interval: the
    ``estimators.half_width`` intervals that ``renyitail estimate`` prints.
    """
    n = cfg.n
    # checked once here, not per replication: the spacing variance needs k >= 2
    ks, kmax = estimators._check_k(n, cfg.k_grid, minimum=2)
    idx, ksf = ks - 1, ks.astype(np.float64)
    unit = estimators.half_width(1.0, ks, cfg.eps)

    def one_rep(spec, rng):
        gh, sig = estimators._hill_sigma(_zhat_for(spec, rng, n), idx, ksf, kmax)
        dev = np.abs(gh - spec.gamma)
        return np.concatenate([(dev <= sig * unit), (dev <= gh * unit)])

    columns, cols = ["k"], []
    for spec, vals in _per_law(cfg, one_rep, workers):
        freq = np.mean(vals, axis=0)
        cols += [freq[: len(ks)], freq[len(ks):]]
        columns += [f"{spec.canonical()}_spacing", f"{spec.canonical()}_self"]
    return ReportTable(columns, _rows(cfg.k_grid, cols), _meta(cfg))


def _ks_statistic(v: np.ndarray, cdf) -> float:
    """sup_t |F_N(t) - cdf(t)| for the sample v: max(i/N - F, F - (i-1)/N) over
    F = cdf(sorted v), in scipy.stats.kstest's operations and so with its bits."""
    f = cdf(np.sort(v))
    n = len(f)
    return float(max(np.max(np.arange(1.0, n + 1) / n - f), np.max(f - np.arange(0.0, n) / n)))


def _exponential_limit(cfg: ExperimentConfig, workers: int) -> ReportTable:
    """Distance of a random coordinate X_{D,n} from its exponential limit.

    Per n and spacing law: one-sample KS of X_{D1,n} against Exp(gamma), the
    empirical correlation of (X_{D1,n}, X_{D2,n}) for distinct random
    indices, and their product moment next to the closed-form exact value;
    ks_critical is the 1% point of the limiting Kolmogorov law over sqrt(reps).
    """
    _require_spacing_laws(cfg)
    _require_two_reps(cfg)
    n_grid = cfg.n_grid
    exact = {spec: cross_moment_recursion(spec, max(n_grid)) for spec in cfg.specs}
    columns = ["n", "ks_critical"]
    for spec in cfg.specs:
        tagc = spec.canonical()
        columns += [f"{tagc}_ks", f"{tagc}_corr", f"{tagc}_m11", f"{tagc}_m11_exact"]

    def one_rep(m, spec, rng):
        x = generalized_renyi(draw(spec, rng, m))
        i = int(rng.integers(m))
        j = int(rng.integers(m - 1))
        if j >= i:
            j += 1
        return (x[i], x[j])

    # one job per (n, law), n-major, so the run forks its worker processes once
    jobs = [job for m in n_grid
            for job in _law_jobs(cfg, partial(one_rep, m), f"/n={m}")]
    rows = []
    with closing(_replications(jobs, cfg.master_seed, workers)) as results:
        for m in n_grid:
            cells = [m, KS_CRITICAL_1PCT / math.sqrt(cfg.reps)]
            for spec, vals in zip(cfg.specs, results):
                v1, v2 = vals[:, 0], vals[:, 1]
                ks = _ks_statistic(v1, lambda t: 1.0 - np.exp(-t / spec.gamma))
                cells += [ks, float(np.corrcoef(v1, v2)[0, 1]), float(np.mean(v1 * v2)),
                          float(exact[spec][m])]
            rows.append(tuple(cells))
    return ReportTable(columns, rows, _meta(cfg))


@dataclass(frozen=True)
class MCTailResult:
    """Monte Carlo estimate of (1/k) log P(hill(k) >= y)."""

    estimate: float | None
    std_error: float | None
    events: int
    reps: int
    insufficient: bool


def _tail_job(spec: DistributionSpec, k: int, y: float, reps: int, seed: SeedSpec) -> _Job:
    """The replication job of one k: each replication draws k values, and
    the job's fold marks the rows whose mean is at least y."""

    def one_rep(rng) -> np.ndarray:
        return draw(spec, rng, k)

    def hits(block: np.ndarray) -> np.ndarray:
        # each row reduces as the row alone would, and .mean() is that add.reduce
        # divided by the count, so these are the bits of draw(...).mean() >= y
        return np.add.reduce(block, axis=1) / k >= y

    tag = f"mc_tail/{spec.canonical()}/k={k}/y={y!r}/s={seed.stream_index}"
    return _Job(one_rep, reps, tag, fold=hits)


def _tail_results(spec: DistributionSpec, ks, y: float, reps: int, seed: SeedSpec,
                  workers: int):
    """Yield the ``mc_tail_logprob`` result of each k of ks, in order.

    A k is declined when the expected event count reps * exp(-k * rate)
    falls below 100; every other k is one job of a single ``_replications``
    run, which forks the worker processes once for all of ks.
    """
    ks, reps = [_index(k, "k", 1) for k in ks], _index(reps, "reps", 1)
    rate = _tail_rate(spec, y)
    runs = [reps * math.exp(-k * rate) >= 100.0 for k in ks]  # an infinite rate gives exp 0
    jobs = [_tail_job(spec, k, y, reps, seed) for k, run in zip(ks, runs) if run]
    with closing(_replications(jobs, seed.master_seed, workers)) as hits:
        for k, run in zip(ks, runs):
            events = int(np.count_nonzero(next(hits))) if run else 0
            if events == 0:
                yield MCTailResult(None, None, 0, reps, True)
                continue
            p_hat = events / reps
            se = math.sqrt((1.0 - p_hat) / (reps * p_hat)) / k
            yield MCTailResult(math.log(p_hat) / k, se, events, reps, False)


def mc_tail_logprob(spec: DistributionSpec, k: int, y: float, reps: int,
                    seed: SeedSpec, workers: int = 1) -> MCTailResult:
    """Estimate (1/k) log P(hill(k) >= y) from raw replication frequencies.

    Declines to report a number when the expected event count
    reps * exp(-k * rate) falls below 100, or when no events occur.
    """
    (result,) = _tail_results(spec, (k,), y, reps, seed, workers)
    return result


def _ld_check(cfg: ExperimentConfig, workers: int) -> ReportTable:
    """Tail decay of the Hill estimator against the rate-function limit.

    Per k: the Monte Carlo estimate of (1/k) log P(hill >= y) (tagged, never
    faked, when events are insufficient), the exact gamma-tail value where
    the spacing law admits one, and the limiting rate -inf_{x>=y} I(x).
    """
    if len(cfg.specs) != 1:
        raise ValueError("the large-deviation check runs one spacing law at a time")
    _require_spacing_laws(cfg)
    spec = cfg.specs[0]
    estimators._check_k(cfg.n, cfg.k_grid)  # every k at most n; once, before any fork
    limit = 0.0 - _tail_rate(spec, cfg.y)  # 0.0, not -0.0, at or below the mean
    columns = ["k", "mc", "mc_se", "events", "insufficient", "exact", "limit"]
    # mc_tail_logprob per k, from one engine run that forks its worker processes once
    ran = _tail_results(spec, cfg.k_grid, cfg.y, cfg.reps, SeedSpec(cfg.master_seed), workers)
    rows = []
    with closing(ran) as results:
        for k, res in zip(cfg.k_grid, results):
            exact = exact_hill_tail(spec, k, cfg.y) / k if spec.kind in ("exp", "gamma") else None
            rows.append((k, res.estimate, res.std_error, res.events,
                         int(res.insufficient), exact, limit))
    return ReportTable(columns, rows, _meta(cfg))


# per experiment: its runner, and each setting it reads (the only ones its config
# line records) with its default: a value, a function of n, or None if required
_EXPERIMENTS = {
    "variance_curve": (_variance_curve, {"n": 2000, "reps": 2000, "master_seed": DEFAULT_SEED,
                                         "s_grid": default_s_grid()}),
    "hill_plot": (_hill_plot, {"n": 2000, "reps": 2000, "master_seed": DEFAULT_SEED}),
    "coverage": (_coverage, {"n": 2000, "reps": 2000, "eps": 0.1, "master_seed": DEFAULT_SEED,
                             "k_grid": default_k_grid}),
    "exp_limit": (_exponential_limit, {"reps": 2000, "master_seed": DEFAULT_SEED,
                                       "n_grid": (50, 200, 2000)}),
    "ld_check": (_ld_check, {"n": 2000, "reps": 2000, "master_seed": DEFAULT_SEED,
                             "k_grid": (5, 10, 20, 50, 100, 200, 400), "y": None}),
}


def run_experiment(cfg: ExperimentConfig, workers: int = 1) -> ReportTable:
    """Run the experiment ``cfg`` names; the table's meta records ``cfg.to_text()``."""
    return _EXPERIMENTS[cfg.experiment][0](cfg, workers)
