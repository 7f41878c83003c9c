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
import time
from dataclasses import dataclass, field, replace
from itertools import chain

import numpy as np

from . import estimators
from .gof import ks_critical, ks_statistic
from .large_deviations import _tail_rate, exact_hill_tail, mc_tail_logprob
from .rand_models import (
    DistributionSpec,
    SeedSpec,
    draw,
    parse_spec,
    replication_map,
    support,
)
from .renyi import HeavySample, cross_moment_recursion, heavy_sample

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

EXPERIMENTS = ("variance_curve", "hill_plot", "coverage", "exp_limit", "ld_check")


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
    scale_c: float = 1.0
    s_grid: tuple[float, ...] | None = None
    k_grid: tuple[int, ...] | None = None
    n_grid: tuple[int, ...] | None = None
    y: float | None = None
    avg_seeds: int = 1

    def __post_init__(self):
        if self.experiment not in EXPERIMENTS:
            raise ValueError(f"unknown experiment {self.experiment!r}")
        specs = tuple(parse_spec(s) if isinstance(s, str) else s for s in self.specs)
        if not specs:
            raise ValueError("at least one distribution spec is required")
        object.__setattr__(self, "specs", specs)
        if self.n < 1 or self.reps < 1 or self.avg_seeds < 1:
            raise ValueError("n, reps and avg_seeds must be positive")
        if not 0.0 < self.eps < 1.0:
            raise ValueError("eps must lie in (0, 1)")
        if not self.scale_c > 0:
            raise ValueError("scale C must be positive")
        if self.y is not None and not math.isfinite(self.y):
            raise ValueError("threshold y must be finite")
        if self.s_grid is not None:
            sg = tuple(float(s) for s in self.s_grid)
            if any(not 0.0 < s < 1.0 for s in sg):
                raise ValueError("s grid must lie in (0, 1)")
            object.__setattr__(self, "s_grid", sg)
        if self.k_grid is not None:
            kg = tuple(int(k) for k in self.k_grid)
            if any(k < 1 for k in kg):
                raise ValueError("k grid entries must be positive")
            # only the coverage experiment reads k order statistics out of an n-sample
            if self.experiment == "coverage" and any(k > self.n for k in kg):
                raise ValueError("k grid must lie in 1..n")
            object.__setattr__(self, "k_grid", kg)
        if self.n_grid is not None:
            ng = tuple(int(m) for m in self.n_grid)
            if any(m < 2 for m in ng):
                raise ValueError("n grid entries must be at least 2")
            object.__setattr__(self, "n_grid", ng)

    def to_text(self) -> str:
        payload = {
            "experiment": self.experiment,
            "specs": [s.canonical() for s in self.specs],
            "n": self.n,
            "reps": self.reps,
            "eps": self.eps,
            "master_seed": self.master_seed,
            "scale_c": self.scale_c,
            "s_grid": list(self.s_grid) if self.s_grid is not None else None,
            "k_grid": list(self.k_grid) if self.k_grid is not None else None,
            "n_grid": list(self.n_grid) if self.n_grid is not None else None,
            "y": self.y,
            "avg_seeds": self.avg_seeds,
        }
        return json.dumps(payload, sort_keys=True)

    @classmethod
    def from_text(cls, text: str) -> "ExperimentConfig":
        d = json.loads(text)
        for key in ("specs", "s_grid", "k_grid", "n_grid"):
            if d.get(key) is not None:
                d[key] = tuple(d[key])
        return cls(**d)


@dataclass
class ReportTable:
    """Column-named rows plus a reproducibility metadata block."""

    columns: list[str]
    rows: list[tuple]
    meta: dict
    wall_time_s: float = field(default=0.0, compare=False)

    def __post_init__(self):
        if set(map(len, self.rows)) - {len(self.columns)}:
            raise ValueError("row width does not match the column list")
        # csv writes a float by its repr and anything else by str, so numpy
        # scalars become plain Python values (float32 widened to float64) here
        if any(issubclass(t, np.generic) for t in set(map(type, chain.from_iterable(self.rows)))):
            self.rows = [tuple(_plain(v) for v in row) for row in self.rows]

    def to_csv(self) -> str:
        """'#'-prefixed meta lines, then an RFC-4180 header + rows."""
        buf = io.StringIO()
        for key in sorted(self.meta):
            buf.write(f"# {key}={self.meta[key]}\r\n")
        writer = csv.writer(buf)
        writer.writerow(self.columns)
        writer.writerows(self.rows)
        return buf.getvalue()

    @staticmethod
    def _json_cell(value):
        if isinstance(value, float) and math.isnan(value):
            return None
        return value

    def to_json(self) -> str:
        rows = [{k: self._json_cell(v) for k, v in zip(self.columns, row)}
                for row in self.rows]
        return json.dumps({"meta": self.meta, "rows": rows}, sort_keys=True)

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


def _heavy_for(spec: DistributionSpec, rng, n: int, scale_c: float) -> HeavySample:
    """Model sample for spacing laws; sorted iid draws for comparison laws."""
    if spec.is_spacing_law:
        return heavy_sample(draw(spec, rng, n), scale_c)
    w = np.sort(draw(spec, rng, n))
    return HeavySample(scale_c=support(spec)[0], w=w)


def run_variance_curve(cfg: ExperimentConfig, workers: int = 1) -> ReportTable:
    """Empirical variance of sqrt(n)(gamma_tilde(s) - gamma)/sd(Z) over the
    s grid, one column per spacing law, next to the theoretical h(s).
    """
    t0 = time.perf_counter()
    if any(not s.is_spacing_law for s in cfg.specs):
        raise ValueError("variance curve requires spacing laws")
    s_grid = cfg.s_grid if cfg.s_grid is not None else default_s_grid()
    cfg = replace(cfg, s_grid=s_grid)
    n = cfg.n
    idx, denom = estimators._quantile_terms(n, s_grid)
    weights = 1.0 / np.arange(n, 0, -1)

    columns = ["s", "h"] + [s.canonical() for s in cfg.specs]
    variance_cols = []
    degenerate = cfg.reps < 2
    for spec in cfg.specs:
        g, sd = spec.gamma, math.sqrt(spec.variance)

        def one_rep(rng, _spec=spec):
            x = np.cumsum(draw(_spec, rng, n) * weights)
            return x[idx] / denom

        vals = replication_map(one_rep, cfg.reps, cfg.master_seed,
                               f"variance_curve/{spec.canonical()}", workers=workers)
        scaled = math.sqrt(n) * (vals - g) / sd
        if degenerate:
            variance_cols.append(np.zeros(len(s_grid)))
        else:
            variance_cols.append(np.var(scaled, axis=0, ddof=1))
    rows = []
    for j, s in enumerate(s_grid):
        rows.append((s, estimators.h_function(s), *(col[j] for col in variance_cols)))
    meta = _meta(cfg)
    if degenerate:
        meta["degenerate_variance"] = True
    return ReportTable(columns, rows, meta, wall_time_s=time.perf_counter() - t0)


def run_hill_plot(cfg: ExperimentConfig, workers: int = 1) -> ReportTable:
    """Hill trajectory gamma_hat(k), k = 1..n, one column per law.

    Spacing laws go through the model construction; Pareto-type laws are
    sampled iid and sorted.  With avg_seeds > 1 the trajectory is averaged
    over that many independent realizations.
    """
    t0 = time.perf_counter()
    n = cfg.n
    columns = ["k"] + [s.canonical() for s in cfg.specs]
    trajs = []
    for spec in cfg.specs:

        def one_rep(rng, _spec=spec):
            return estimators.hill_trajectory(_heavy_for(_spec, rng, n, cfg.scale_c))

        vals = replication_map(one_rep, cfg.avg_seeds, cfg.master_seed,
                               f"hill_plot/{spec.canonical()}", workers=workers)
        trajs.append(np.mean(vals, axis=0))
    rows = [(k, *(tr[k - 1] for tr in trajs)) for k in range(1, n + 1)]
    return ReportTable(columns, rows, _meta(cfg), wall_time_s=time.perf_counter() - t0)


def run_coverage(cfg: ExperimentConfig, workers: int = 1) -> ReportTable:
    """Fraction of replications whose interval covers gamma, per k and law,
    for both the spacing-variance and the self-normalized interval.
    """
    t0 = time.perf_counter()
    k_grid = cfg.k_grid if cfg.k_grid is not None else default_k_grid(cfg.n)
    if any(k < 2 for k in k_grid):
        raise ValueError("coverage needs k >= 2 for the spacing variance")
    cfg = replace(cfg, k_grid=k_grid)
    n = cfg.n
    ks = np.asarray(k_grid)
    x_eps = estimators._x_eps(cfg.eps)
    columns = ["k"]
    cover_cols = []
    for spec in cfg.specs:
        g = spec.gamma

        def one_rep(rng, _spec=spec, _g=g):
            h = _heavy_for(_spec, rng, n, cfg.scale_c)
            gh = estimators.hill(h, ks)
            sig = estimators.spacing_sigma(h, ks)
            dev = np.abs(gh - _g) * np.sqrt(ks)
            return np.concatenate([(dev <= sig * x_eps), (dev <= gh * x_eps)])

        vals = replication_map(one_rep, cfg.reps, cfg.master_seed,
                               f"coverage/{spec.canonical()}", workers=workers)
        freq = np.mean(vals, axis=0)
        cover_cols.append((freq[: len(ks)], freq[len(ks):]))
        columns += [f"{spec.canonical()}_spacing", f"{spec.canonical()}_self"]
    rows = []
    for j, k in enumerate(k_grid):
        cells = []
        for new, self_ in cover_cols:
            cells += [new[j], self_[j]]
        rows.append((k, *cells))
    return ReportTable(columns, rows, _meta(cfg), wall_time_s=time.perf_counter() - t0)


def run_exponential_limit(cfg: ExperimentConfig, workers: int = 1) -> ReportTable:
    """Distance of a random coordinate X_{D,n} from its exponential limit.

    Per n and spacing law: one-sample KS of X_{D1,n} against Exp(gamma), the
    empirical correlation of (X_{D1,n}, X_{D2,n}) for distinct random
    indices, and their product moment next to the exact recursion value.
    """
    t0 = time.perf_counter()
    if any(not s.is_spacing_law for s in cfg.specs):
        raise ValueError("the exponential-limit check requires spacing laws")
    n_grid = cfg.n_grid if cfg.n_grid is not None else default_n_grid()
    cfg = replace(cfg, n_grid=n_grid)
    columns = ["n", "ks_critical"]
    for spec in cfg.specs:
        tagc = spec.canonical()
        columns += [f"{tagc}_ks", f"{tagc}_corr", f"{tagc}_m11", f"{tagc}_m11_exact"]
    rows = []
    per_spec_cn = {s: {} for s in cfg.specs}
    for spec in cfg.specs:
        cn = cross_moment_recursion(spec, max(n_grid))
        for m in n_grid:
            per_spec_cn[spec][m] = float(cn[m])
    for m in n_grid:
        cells = [m, ks_critical(0.01, cfg.reps)]
        for spec in cfg.specs:
            g = spec.gamma
            weights = 1.0 / np.arange(m, 0, -1)

            def one_rep(rng, _spec=spec, _w=weights, _m=m):
                x = np.cumsum(draw(_spec, rng, _m) * _w)
                i = int(rng.integers(_m))
                j = int(rng.integers(_m - 1))
                if j >= i:
                    j += 1
                return (x[i], x[j])

            vals = replication_map(one_rep, cfg.reps, cfg.master_seed,
                                   f"exp_limit/{spec.canonical()}/n={m}", workers=workers)
            v1, v2 = vals[:, 0], vals[:, 1]
            ks = ks_statistic(v1, lambda t: 1.0 - np.exp(-t / g))
            corr = float(np.corrcoef(v1, v2)[0, 1])
            cells += [ks, corr, float(np.mean(v1 * v2)), per_spec_cn[spec][m]]
        rows.append(tuple(cells))
    return ReportTable(columns, rows, _meta(cfg), wall_time_s=time.perf_counter() - t0)


def run_ld_check(cfg: ExperimentConfig, workers: int = 1) -> ReportTable:
    """Tail decay of the Hill estimator against the rate-function limit.

    Per k: the Monte Carlo estimate of (1/k) log P(hill >= y) (tagged, never
    faked, when events are insufficient), the exact gamma-tail value where
    the spacing law admits one, and the limiting rate -inf_{x>=y} I(x).
    """
    t0 = time.perf_counter()
    if len(cfg.specs) != 1:
        raise ValueError("the large-deviation check runs one spacing law at a time")
    spec = cfg.specs[0]
    if not spec.is_spacing_law:
        raise ValueError("the large-deviation check requires a spacing law")
    if cfg.y is None:
        raise ValueError("threshold y is required")
    k_grid = cfg.k_grid if cfg.k_grid is not None else (5, 10, 20, 50, 100, 200, 400)
    cfg = replace(cfg, k_grid=tuple(k_grid))
    limit = -_tail_rate(spec, cfg.y)
    columns = ["k", "mc", "mc_se", "events", "insufficient", "exact", "limit"]
    rows = []
    for k in cfg.k_grid:
        res = mc_tail_logprob(spec, k, cfg.y, cfg.reps,
                              SeedSpec(cfg.master_seed), workers=workers)
        exact = exact_hill_tail(spec, k, cfg.y) / k if spec.kind in ("exp", "gamma") else None
        rows.append((k, res.estimate, res.std_error, res.events,
                     int(res.insufficient), exact, limit))
    return ReportTable(columns, rows, _meta(cfg), wall_time_s=time.perf_counter() - t0)


def run_experiment(cfg: ExperimentConfig, workers: int = 1) -> ReportTable:
    runner = {
        "variance_curve": run_variance_curve,
        "hill_plot": run_hill_plot,
        "coverage": run_coverage,
        "exp_limit": run_exponential_limit,
        "ld_check": run_ld_check,
    }[cfg.experiment]
    return runner(cfg, workers=workers)
