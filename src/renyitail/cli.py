"""Command-line front end: simulate, estimate, fit, rate, figure.

Every run emits a CSV or JSON table that embeds the exact invocation and
the seed in its metadata block; the environment variable RENYI_SEED
overrides --seed when set.  Exit codes: 0 success, 2 usage error, 1
runtime/data error.  Output schemas are described in docs/formats.md.
"""

from __future__ import annotations

import argparse
import math
import os
import shlex
import sys

import numpy as np

from . import estimators, likelihood
from .experiments import (
    DEFAULT_SEED,
    ExperimentConfig,
    ReportTable,
    run_experiment,
)
from .large_deviations import gamma_family_rates, iid_comparison_rates, rate_function
from .rand_models import SeedSpec, parse_spec, sample
from .renyi import HeavySample, heavy_sample, scaled_log_spacings

_EPILOG = """\
output formats:
  csv     '#' meta lines (invocation, seed, config), then an RFC-4180 table
  json    object {"meta": {...}, "rows": [{column: value, ...}, ...]}
Full schemas per subcommand are documented in docs/formats.md.
"""

_FIGURE_SPECS = {
    "1": ("variance_curve", ["unif:gamma=0.5", "bern:gamma=0.5", "exp:gamma=0.5"]),
    "2": ("hill_plot", ["pareto:gamma=0.5,c=1", "hall", "unif:gamma=0.5",
                        "bern:gamma=0.5", "exp:gamma=0.5"]),
    "3": ("coverage", ["unif:gamma=0.5", "bern:gamma=0.5", "exp:gamma=0.5"]),
    "t1": ("exp_limit", ["unif:gamma=0.5", "bern:gamma=0.5", "exp:gamma=0.5"]),
    "ld": ("ld_check", ["exp:gamma=1"]),
}

# (n, reps) per figure id: desk scale, and the published scale behind --paper-scale
_FIGURE_SIZES = {
    "1": ((1000, 1000), (1000, 1000)),
    "2": ((5000, 1), (5000, 1)),
    "3": ((2000, 2000), (5000, 10000)),
    "t1": ((2000, 20000), (5000, 100000)),
    "ld": ((2000, 100000), (5000, 1000000)),
}


class DataError(Exception):
    """Bad input data (exit code 1)."""


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text}")
    return value


def _positive_float(text: str) -> float:
    value = float(text)
    if not 0 < value < math.inf:
        raise argparse.ArgumentTypeError(f"expected a positive finite number, got {text}")
    return value


def _finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text}")
    return value


def _unit_float(text: str) -> float:
    value = float(text)
    if not 0.0 < value < 1.0:
        raise argparse.ArgumentTypeError(f"expected a value in (0, 1), got {text}")
    return value


def _spec_arg(text: str):
    try:
        return parse_spec(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="renyitail",
        description="Heavy-tail simulation and tail-index estimation toolkit.",
        epilog=_EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_io(p):
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument("--out", default=None, help="output path (default stdout)")

    p = sub.add_parser("simulate", help="emit one heavy sample with its scaled log-spacings")
    p.add_argument("--spec", type=_spec_arg, required=True,
                   help="spacing law, e.g. exp:gamma=0.5")
    p.add_argument("--n", type=_positive_int, required=True)
    p.add_argument("--c", type=_positive_float, default=1.0, help="scale floor C")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--stream", type=int, default=0, help="stream index under the seed")
    add_io(p)

    p = sub.add_parser("estimate", help="tail-index estimate from a sorted data column")
    p.add_argument("input", nargs="?", default="-", help="data file, one value per line ('-' = stdin)")
    p.add_argument("--method", choices=("hill", "quantile", "ml-uniform"), default="hill")
    p.add_argument("--k", type=_positive_int, default=None, help="order statistics used (default n)")
    p.add_argument("--s", type=_unit_float, default=None,
                   help="quantile level for --method quantile (default 0.797)")
    p.add_argument("--c", type=_positive_float, required=True, help="scale floor C of the model")
    p.add_argument("--eps", type=_unit_float, default=0.1, help="interval level 1-eps")
    p.add_argument("--interval", choices=("spacing", "self", "none"), default=None,
                   help="interval for --method hill (default spacing)")
    p.add_argument("--allow-unsorted", action="store_true",
                   help="sort the input instead of rejecting unsorted data")
    add_io(p)

    p = sub.add_parser("fit", help="maximum-likelihood spacing-family fit")
    p.add_argument("input", nargs="?", default="-")
    p.add_argument("--family", choices=("exponential", "gamma", "uniform"), required=True)
    p.add_argument("--r", type=_positive_float, default=None, help="gamma-family shape")
    p.add_argument("--k", type=_positive_int, default=None)
    p.add_argument("--c", type=_positive_float, required=True)
    p.add_argument("--allow-unsorted", action="store_true")
    add_io(p)

    p = sub.add_parser("rate", help="large-deviation rates")
    p.add_argument("--family", choices=("gamma", "iid"), default=None)
    p.add_argument("--r", type=_positive_float, default=None, help="--family gamma shape (default 1)")
    p.add_argument("--c", type=_unit_float, default=None, help="relative deviation in (0, 1)")
    p.add_argument("--spec", type=_spec_arg, default=None, help="evaluate I(z) for this law")
    p.add_argument("--z", type=_finite_float, default=None)
    add_io(p)

    p = sub.add_parser("figure", help="reproduce a figure-style table at desk scale")
    p.add_argument("--id", choices=tuple(_FIGURE_SPECS), required=True, dest="figure_id")
    p.add_argument("--spec", type=_spec_arg, action="append", default=None,
                   help="override the default laws (repeatable)")
    p.add_argument("--n", type=_positive_int, default=None)
    p.add_argument("--reps", type=_positive_int, default=None)
    p.add_argument("--eps", type=_unit_float, default=0.1)
    p.add_argument("--y", type=_finite_float, default=1.5, help="tail threshold for --id ld")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--avg-seeds", type=_positive_int, default=1,
                   help="average the hill plot over this many seeds")
    p.add_argument("--workers", type=_positive_int, default=1)
    p.add_argument("--paper-scale", action="store_true",
                   help="published n/reps instead of the desk-scale defaults")
    add_io(p)

    return parser


# flags each choice ignores, and the defaults of the flags it reads
_IGNORED_FLAGS = {
    ("estimate", "hill"): ("s",),
    ("estimate", "quantile"): ("k", "interval"),
    ("estimate", "ml-uniform"): ("s", "interval"),
    ("fit", "exponential"): ("r",),
    ("fit", "uniform"): ("r",),
    ("rate", "iid"): ("r",),
    ("rate", None): ("r", "c"),
}
_FLAG_DEFAULTS = {"estimate": {"s": 0.797, "interval": "spacing"}, "rate": {"r": 1.0}}


def _resolve_flags(args, parser) -> None:
    """Reject a flag the chosen method ignores (exit 2), then fill in the defaults it reads."""
    choice = args.method if args.command == "estimate" else getattr(args, "family", None)
    for name in _IGNORED_FLAGS.get((args.command, choice), ()):
        if getattr(args, name) is not None:
            key = "method" if args.command == "estimate" else "family"
            what = f"with --{key} {choice}" if choice else f"without --{key}"
            parser.error(f"--{name} has no effect {what}")
    for name, value in _FLAG_DEFAULTS.get(args.command, {}).items():
        if getattr(args, name) is None:
            setattr(args, name, value)


def _effective_seed(args) -> int:
    env = os.environ.get("RENYI_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise DataError(f"RENYI_SEED is not an integer: {env!r}") from None
    return args.seed


def _read_column(path: str, allow_unsorted: bool) -> np.ndarray:
    if path == "-":
        lines = sys.stdin.read().splitlines()
        where = "<stdin>"
    else:
        try:
            with open(path, "r", encoding="utf-8") as f:
                lines = f.read().splitlines()
        except OSError as exc:
            raise DataError(f"cannot read {path}: {exc}") from None
        where = path
    linenos = None  # the line of each value, when blank lines break the count
    try:
        data = np.array([float(line) for line in lines])
        clean = len(data) > 0 and ((data > 0) & (data < math.inf)).all()
    except ValueError:
        clean = False
    if not clean:  # blank lines, or a bad line to report by its number
        values, linenos = [], []
        for lineno, line in enumerate(lines, start=1):
            text = line.strip()
            if not text:
                continue
            try:
                v = float(text)
            except ValueError:
                raise DataError(f"{where}:{lineno}: not a number: {text!r}") from None
            if not v > 0 or not math.isfinite(v):
                raise DataError(f"{where}:{lineno}: data must be positive and finite")
            values.append(v)
            linenos.append(lineno)
        if not values:
            raise DataError(f"{where}: no data")
        data = np.asarray(values)
    if allow_unsorted:
        return np.sort(data)
    drops = np.nonzero(np.diff(data) < 0)[0]
    if len(drops):
        i = int(drops[0]) + 1  # the first value below its predecessor
        line = linenos[i] if linenos else i + 1
        raise DataError(f"{where}:{line}: data decreases here; pass --allow-unsorted to sort")
    return data


def _emit(table: ReportTable, args, argv: list[str]) -> None:
    table.meta["invocation"] = shlex.join(["renyitail"] + list(argv))
    text = table.to_csv() if args.format == "csv" else table.to_json() + "\n"
    if args.out is None:
        sys.stdout.write(text)
    else:
        with open(args.out, "w", encoding="utf-8", newline="") as f:
            f.write(text)


def _cmd_simulate(args, argv) -> int:
    seed = SeedSpec(_effective_seed(args) % 2**64, args.stream % 2**64)
    if not args.spec.is_spacing_law:
        raise DataError(f"{args.spec} is not a spacing law")
    z = sample(args.spec, seed, args.n)
    h = heavy_sample(z, args.c)
    zhat = scaled_log_spacings(h)
    rows = list(zip(range(1, args.n + 1), h.w.tolist(), zhat.tolist()))
    table = ReportTable(
        ["index", "w", "scaled_log_spacing"], rows,
        {"spec": args.spec.canonical(), "n": args.n, "scale_c": args.c,
         "master_seed": seed.master_seed, "stream": seed.stream_index},
    )
    _emit(table, args, argv)
    return 0


def _estimate_record(args, h: HeavySample):
    n = h.n
    k = args.k if args.k is not None else n
    if k > n:
        raise DataError(f"k={k} exceeds the sample size {n}")
    if args.method == "hill":
        gamma_hat = estimators.hill(h, k)
        if args.interval == "spacing":
            if k < 2:
                raise DataError("the spacing interval needs k >= 2")
            return estimators.ci_spacing(gamma_hat, estimators.spacing_sigma(h, k), k, args.eps)
        if args.interval == "self":
            return estimators.ci_hill_self(gamma_hat, k, args.eps)
        return estimators.EstimateWithCI(gamma_hat, gamma_hat, gamma_hat, k,
                                         1.0 - args.eps, "hill", "none")
    if args.method == "quantile":
        gamma_tilde = estimators.quantile_estimator(np.log(h.w) - math.log(h.scale_c), args.s)
        sigma = estimators.spacing_sigma(h, n)
        return estimators.ci_quantile(gamma_tilde, sigma, args.s, n, args.eps)
    gamma_hat = estimators.ml_uniform(h, k)
    return estimators.EstimateWithCI(gamma_hat, gamma_hat, gamma_hat, k,
                                     1.0 - args.eps, "ml_uniform", "none")


def _cmd_estimate(args, argv) -> int:
    data = _read_column(args.input, args.allow_unsorted)
    h = HeavySample(scale_c=args.c, w=data)
    est = _estimate_record(args, h)
    s_cell = args.s if args.method == "quantile" else None
    table = ReportTable(
        ["method", "gamma_hat", "lower", "upper", "k_used", "level", "interval_method", "s"],
        [(est.method, est.gamma_hat, est.lower, est.upper, est.k_used,
          est.level, est.interval_method, s_cell)],
        {"n": h.n, "scale_c": args.c},
    )
    _emit(table, args, argv)
    return 0


def _cmd_fit(args, argv) -> int:
    if args.family == "gamma" and args.r is None:
        raise DataError("--family gamma needs --r")
    data = _read_column(args.input, args.allow_unsorted)
    h = HeavySample(scale_c=args.c, w=data)
    k = args.k if args.k is not None else h.n
    if k > h.n:
        raise DataError(f"k={k} exceeds the sample size {h.n}")
    gamma_hat = likelihood.ml_fit(args.family, h, k, r=args.r)
    table = ReportTable(
        ["family", "r", "gamma_hat", "k_used", "n"],
        [(args.family, args.r if args.family == "gamma" else None, gamma_hat, k, h.n)],
        {"scale_c": args.c},
    )
    _emit(table, args, argv)
    return 0


def _cmd_rate(args, argv, parser) -> int:
    by_family = args.family is not None
    by_spec = args.spec is not None or args.z is not None
    if by_family == by_spec:
        parser.error("rate needs either --family with --c, or --spec with --z")
    if by_family:
        if args.c is None:
            parser.error("--family needs --c in (0, 1)")
        if args.family == "gamma":
            upper, lower = gamma_family_rates(args.r, args.c)
            row = ("gamma", args.r, args.c, upper, lower)
        else:
            upper, lower = iid_comparison_rates(args.c)
            row = ("iid", 1.0, args.c, upper, lower)
        table = ReportTable(["family", "r", "c", "upper_rate", "lower_rate"], [row], {})
    else:
        if args.spec is None or args.z is None:
            parser.error("--spec and --z go together")
        value = rate_function(args.spec, args.z)
        table = ReportTable(["spec", "z", "rate"],
                            [(args.spec.canonical(), args.z, value)], {})
    _emit(table, args, argv)
    return 0


def _cmd_figure(args, argv) -> int:
    experiment, default_specs = _FIGURE_SPECS[args.figure_id]
    desk, paper = _FIGURE_SIZES[args.figure_id]
    n, reps = paper if args.paper_scale else desk
    n = args.n if args.n is not None else n
    reps = args.reps if args.reps is not None else reps
    specs = tuple(args.spec) if args.spec else tuple(default_specs)
    cfg = ExperimentConfig(
        experiment=experiment,
        specs=specs,
        n=n,
        reps=reps,
        eps=args.eps,
        master_seed=_effective_seed(args) % 2**64,
        y=args.y if experiment == "ld_check" else None,
        avg_seeds=args.avg_seeds,
    )
    table = run_experiment(cfg, workers=args.workers)
    print(f"[{experiment}] wall time {table.wall_time_s:.2f}s", file=sys.stderr)
    _emit(table, args, argv)
    return 0


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser()
    args = parser.parse_args(argv)
    _resolve_flags(args, parser)
    try:
        if args.command == "simulate":
            return _cmd_simulate(args, argv)
        if args.command == "estimate":
            return _cmd_estimate(args, argv)
        if args.command == "fit":
            return _cmd_fit(args, argv)
        if args.command == "rate":
            return _cmd_rate(args, argv, parser)
        return _cmd_figure(args, argv)
    except (DataError, ValueError, NotImplementedError, OSError) as exc:
        print(f"renyitail: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
