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
from dataclasses import dataclass, fields, replace
from functools import partial
from itertools import chain

import numpy as np

from . import estimators
from ._special import KS_CRITICAL_1PCT
from .engine import SeedSpec, _Job, _replications, replication_map
from .large_deviations import _tail_rate, _tail_results, exact_hill_tail
from .rand_models import DistributionSpec, _index, draw, parse_spec, support
from .renyi import HeavySample, _model_zhat, cross_moment_recursion, generalized_renyi

__all__ = [
    "DEFAULT_SEED",
    "ExperimentConfig",
    "ReportTable",
    "replication_map",
    "default_s_grid",
    "default_k_grid",
    "default_n_grid",
    "run_variance_curve",
    "run_hill_plot",
    "run_coverage",
    "run_exponential_limit",
    "run_ld_check",
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


def default_n_grid() -> tuple[int, ...]:
    return (50, 200, 2000)


@dataclass(frozen=True)
class ExperimentConfig:
    """Parameters of one experiment run; round-trips through to_text()."""

    experiment: str
    specs: tuple[DistributionSpec, ...]
    n: int = 2000
    reps: int = 2000
    eps: float = 0.1
    master_seed: int = DEFAULT_SEED
    s_grid: tuple[float, ...] | None = None
    k_grid: tuple[int, ...] | None = None
    n_grid: tuple[int, ...] | None = None
    y: float | None = None

    def __post_init__(self):
        if self.experiment not in _RUNNERS:
            raise ValueError(f"unknown experiment {self.experiment!r}")
        specs = tuple(parse_spec(s) if isinstance(s, str) else s for s in self.specs)
        if not specs:
            raise ValueError("at least one distribution spec is required")
        object.__setattr__(self, "specs", specs)
        # SeedSpec owns the seed rule; the config keeps its plain int for to_text()
        object.__setattr__(self, "master_seed", SeedSpec(self.master_seed).master_seed)
        for name in ("n", "reps"):
            object.__setattr__(self, name, _index(getattr(self, name), name, 1))
        if not 0.0 < self.eps < 1.0:
            raise ValueError("eps must lie in (0, 1)")
        if self.y is not None and not math.isfinite(self.y):
            raise ValueError("threshold y must be finite")
        if self.s_grid is not None:
            sg = tuple(float(s) for s in self.s_grid)
            if any(not 0.0 < s < 1.0 for s in sg):
                raise ValueError("s grid must lie in (0, 1)")
            object.__setattr__(self, "s_grid", sg)
        for name, minimum in (("k_grid", 1), ("n_grid", 2)):
            grid = getattr(self, name)
            if grid is not None:
                entry = name.replace("_", " ") + " entry"
                object.__setattr__(self, name, tuple(_index(m, entry, minimum) for m in grid))

    def to_text(self) -> str:
        payload = {f.name: getattr(self, f.name) for f in fields(self)}
        payload["specs"] = [s.canonical() for s in self.specs]
        return json.dumps(payload, sort_keys=True)

    @classmethod
    def from_text(cls, text: str) -> "ExperimentConfig":
        payload = json.loads(text)
        unknown = sorted(set(payload) - {f.name for f in fields(cls)})
        if unknown:
            raise ValueError(f"unknown config keys: {', '.join(unknown)}")
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
    """One row per key: the key, then its entry in each column."""
    return [(key, *(col[j] for col in columns)) for j, key in enumerate(keys)]


def _require_spacing_laws(cfg: ExperimentConfig) -> None:
    if any(not s.is_spacing_law for s in cfg.specs):
        raise ValueError(f"{cfg.experiment} requires spacing laws")


def _require_two_reps(cfg: ExperimentConfig) -> None:
    if cfg.reps < 2:  # one replication has no sample variance or correlation
        raise ValueError(f"{cfg.experiment} needs at least 2 replications, got {cfg.reps}")


def run_variance_curve(cfg: ExperimentConfig, workers: int = 1) -> ReportTable:
    """Empirical variance of sqrt(n)(gamma_tilde(s) - gamma)/sd(Z) over the
    s grid, one column per spacing law, next to the theoretical h(s).
    """
    _require_spacing_laws(cfg)
    _require_two_reps(cfg)
    s_grid = cfg.s_grid if cfg.s_grid is not None else default_s_grid()
    cfg = replace(cfg, s_grid=s_grid)
    n = cfg.n
    idx, denom = estimators._quantile_terms(n, s_grid)

    def one_rep(spec, rng):
        return generalized_renyi(draw(spec, rng, n))[idx] / denom

    cols = [[estimators.h_function(s) for s in s_grid]]
    for spec, vals in _per_law(cfg, one_rep, workers):
        scaled = math.sqrt(n) * (vals - spec.gamma) / math.sqrt(spec.variance)
        cols.append(np.var(scaled, axis=0, ddof=1))
    columns = ["s", "h"] + [s.canonical() for s in cfg.specs]
    return ReportTable(columns, _rows(s_grid, cols), _meta(cfg))


def run_hill_plot(cfg: ExperimentConfig, workers: int = 1) -> ReportTable:
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


def run_coverage(cfg: ExperimentConfig, workers: int = 1) -> ReportTable:
    """Fraction of replications whose interval covers gamma, per k and law,
    for both the spacing-variance and the self-normalized interval: the
    ``estimators.half_width`` intervals that ``renyitail estimate`` prints.
    """
    k_grid = cfg.k_grid if cfg.k_grid is not None else default_k_grid(cfg.n)
    cfg = replace(cfg, k_grid=k_grid)
    n = cfg.n
    # checked once here, not per replication: the spacing variance needs k >= 2
    ks, kmax = estimators._check_k(n, k_grid, minimum=2)
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
    return ReportTable(columns, _rows(k_grid, cols), _meta(cfg))


def _ks_statistic(v: np.ndarray, cdf) -> float:
    """sup_t |F_N(t) - cdf(t)| for the sample v: max(i/N - F, F - (i-1)/N) over
    F = cdf(sorted v), in scipy.stats.kstest's operations and so with its bits."""
    f = cdf(np.sort(v))
    n = len(f)
    return float(max(np.max(np.arange(1.0, n + 1) / n - f), np.max(f - np.arange(0.0, n) / n)))


def run_exponential_limit(cfg: ExperimentConfig, workers: int = 1) -> ReportTable:
    """Distance of a random coordinate X_{D,n} from its exponential limit.

    Per n and spacing law: one-sample KS of X_{D1,n} against Exp(gamma), the
    empirical correlation of (X_{D1,n}, X_{D2,n}) for distinct random
    indices, and their product moment next to the closed-form exact value;
    ks_critical is the 1% point of the limiting Kolmogorov law over sqrt(reps).
    """
    _require_spacing_laws(cfg)
    _require_two_reps(cfg)
    n_grid = cfg.n_grid if cfg.n_grid is not None else default_n_grid()
    cfg = replace(cfg, n_grid=n_grid)
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


def run_ld_check(cfg: ExperimentConfig, workers: int = 1) -> ReportTable:
    """Tail decay of the Hill estimator against the rate-function limit.

    Per k: the Monte Carlo estimate of (1/k) log P(hill >= y) (tagged, never
    faked, when events are insufficient), the exact gamma-tail value where
    the spacing law admits one, and the limiting rate -inf_{x>=y} I(x).
    """
    if len(cfg.specs) != 1:
        raise ValueError("the large-deviation check runs one spacing law at a time")
    _require_spacing_laws(cfg)
    if cfg.y is None:
        raise ValueError("threshold y is required")
    spec = cfg.specs[0]
    k_grid = cfg.k_grid if cfg.k_grid is not None else (5, 10, 20, 50, 100, 200, 400)
    cfg = replace(cfg, k_grid=tuple(k_grid))
    limit = -_tail_rate(spec, cfg.y)
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


_RUNNERS = {
    "variance_curve": run_variance_curve,
    "hill_plot": run_hill_plot,
    "coverage": run_coverage,
    "exp_limit": run_exponential_limit,
    "ld_check": run_ld_check,
}


def run_experiment(cfg: ExperimentConfig, workers: int = 1) -> ReportTable:
    return _RUNNERS[cfg.experiment](cfg, workers=workers)
