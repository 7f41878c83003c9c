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
import time
from itertools import chain

import numpy as np

from . import estimators, likelihood
from .engine import ReplicationError, SeedSpec
from .experiments import (
    _EXPERIMENTS,
    DEFAULT_SEED,
    ExperimentConfig,
    ReportTable,
    run_experiment,
)
from .large_deviations import gamma_family_rates, iid_comparison_rates, rate_function
from .rand_models import draw, parse_spec
from .renyi import HeavySample, heavy_sample

_EPILOG = """\
output formats:
  csv     '#' meta lines (invocation, seed, config), then an RFC-4180 table
  json    object {"meta": {...}, "rows": [{column: value, ...}, ...]}
Full schemas per subcommand are documented in docs/formats.md.
"""

_BLOCK_ROWS = 2**14  # simulate's rows converted, formatted and written per block
_FIGURE_SETTINGS = ("n", "reps", "eps", "y")  # figure flags that set a config setting

# per figure id: experiment, default laws, and the ExperimentConfig settings at
# desk scale and at the published scale behind --paper-scale; the flags given
# override them, and the experiment's own defaults fill in the rest
_FIGURES = {
    "1": ("variance_curve", ["unif:gamma=0.5", "bern:gamma=0.5", "exp:gamma=0.5"],
          {"n": 1000, "reps": 1000}, {"n": 1000, "reps": 1000}),
    "2": ("hill_plot", ["pareto:gamma=0.5,c=1", "hall", "unif:gamma=0.5",
                        "bern:gamma=0.5", "exp:gamma=0.5"],
          {"n": 5000, "reps": 1}, {"n": 5000, "reps": 1}),
    "3": ("coverage", ["unif:gamma=0.5", "bern:gamma=0.5", "exp:gamma=0.5"],
          {"n": 2000, "reps": 2000}, {"n": 5000, "reps": 10000}),
    "t1": ("exp_limit", ["unif:gamma=0.5", "bern:gamma=0.5", "exp:gamma=0.5"],
           {"reps": 20000}, {"reps": 100000}),
    "ld": ("ld_check", ["exp:gamma=1"],
           {"n": 2000, "reps": 100000, "y": 1.5}, {"n": 5000, "reps": 1000000, "y": 1.5}),
}


class DataError(Exception):
    """Bad input data (exit code 1)."""


def _flag_type(convert, holds, expected: str):
    """An argparse type: ``convert(text)``, a usage error (exit 2) unless it ``holds``."""
    def parse(text: str):
        value = convert(text)
        if not holds(value):
            raise argparse.ArgumentTypeError(f"expected {expected}, got {text}")
        return value
    parse.__name__ = convert.__name__  # argparse names it in "invalid int value: 'x'"
    return parse


_positive_int = _flag_type(int, lambda v: v >= 1, "a positive integer")
_positive_float = _flag_type(float, lambda v: 0 < v < math.inf, "a positive finite number")
_finite_float = _flag_type(float, math.isfinite, "a finite number")
_unit_float = _flag_type(float, lambda v: 0.0 < v < 1.0, "a value in (0, 1)")
_seed_int = _flag_type(int, lambda v: 0 <= v < 2**64, "an integer in 0..2**64-1")


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
    p.add_argument("--seed", type=_seed_int, default=DEFAULT_SEED)
    p.add_argument("--stream", type=_seed_int, default=0, help="stream index under the seed")
    add_io(p)

    p = sub.add_parser("estimate", help="tail-index estimate from a sorted data column")
    p.add_argument("input", nargs="?", default="-", help="data file, one value per line ('-' = stdin)")
    p.add_argument("--method", choices=("hill", "quantile", "ml-uniform"), default="hill")
    p.add_argument("--k", type=_positive_int, default=None, help="order statistics used (default n)")
    p.add_argument("--s", type=_unit_float, default=None,
                   help="quantile level for --method quantile (default 0.797)")
    p.add_argument("--c", type=_positive_float, required=True, help="scale floor C of the model")
    p.add_argument("--eps", type=_unit_float, default=None,
                   help="interval level 1-eps (default 0.1)")
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
    p.add_argument("--id", choices=tuple(_FIGURES), required=True)
    p.add_argument("--spec", type=_spec_arg, action="append", default=None,
                   help="override the default laws (repeatable)")
    p.add_argument("--n", type=_positive_int, default=None)
    p.add_argument("--reps", type=_positive_int, default=None)
    p.add_argument("--eps", type=_unit_float, default=None,
                   help="interval level 1-eps for --id 3 (default 0.1)")
    p.add_argument("--y", type=_finite_float, default=None,
                   help="tail threshold for --id ld (default 1.5)")
    p.add_argument("--seed", type=_seed_int, default=DEFAULT_SEED)
    p.add_argument("--workers", type=_positive_int, default=1,
                   help="parallel replication spans, capped at the usable CPUs")
    p.add_argument("--paper-scale", action="store_true",
                   help="published n/reps instead of the desk-scale defaults")
    add_io(p)

    return parser


# flags each choice ignores (a figure ignores those its experiment does not
# read), and the defaults of the flags it reads
_IGNORED_FLAGS = {
    ("estimate", "hill"): ("s",),
    ("estimate", "quantile"): ("k", "interval"),
    ("estimate", "ml-uniform"): ("s", "interval", "eps"),
    ("fit", "exponential"): ("r",),
    ("fit", "uniform"): ("r",),
    ("rate", "iid"): ("r",),
    ("rate", None): ("r", "c"),
}
_FLAG_DEFAULTS = {"estimate": {"s": 0.797, "interval": "spacing", "eps": 0.1},
                  "rate": {"r": 1.0}}


def _resolve_flags(args, parser) -> None:
    """Reject a flag the chosen method ignores, or a missing one it needs (exit 2),
    then fill in the defaults it reads."""
    key = {"estimate": "method", "figure": "id"}.get(args.command, "family")
    choice = getattr(args, key, None)
    ignored = _IGNORED_FLAGS.get((args.command, choice), ())
    if args.command == "figure":  # the settings its experiment does not read
        reads = _EXPERIMENTS[_FIGURES[choice][0]][1]
        ignored = [name for name in _FIGURE_SETTINGS if name not in reads]
    for name in ignored:
        if getattr(args, name) is not None:
            what = f"with --{key} {choice}" if choice else f"without --{key}"
            parser.error(f"--{name} has no effect {what}")
    if args.command == "estimate" and args.interval == "none" and args.eps is not None:
        parser.error("--eps has no effect with --interval none")
    if args.command == "fit" and args.family == "gamma" and args.r is None:
        parser.error("--family gamma needs --r")
    for name, value in _FLAG_DEFAULTS.get(args.command, {}).items():
        if getattr(args, name) is None:
            setattr(args, name, value)


def _effective_seed(args) -> int:
    env = os.environ.get("RENYI_SEED")
    if env is None:
        return args.seed
    try:
        return _seed_int(env)
    except (ValueError, argparse.ArgumentTypeError):
        raise DataError(f"RENYI_SEED is not an integer in 0..2**64-1: {env!r}") from None


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
        data = np.array(lines, dtype=np.float64)  # float() on each str, in C
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


def _emit(table: ReportTable, args, argv: list[str], row_blocks=()) -> None:
    """Write the table to --out or stdout.  ``row_blocks`` are more rows (int,
    float and bool cells), one iterable per block, after the table's own: CSV
    writes each block as it is formatted, JSON holds them all in its one object."""
    table.meta["invocation"] = shlex.join(["renyitail"] + list(argv))

    def write(out):
        if args.format == "json":
            rows = table.rows + list(chain.from_iterable(row_blocks))
            out.write(ReportTable(table.columns, rows, table.meta).to_json() + "\n")
        else:
            table.write_csv(out)
            for block in row_blocks:
                _write_numeric_rows(out, block)

    if args.out is not None:
        with open(args.out, "w", encoding="utf-8", newline="") as f:
            write(f)
        return
    try:
        write(sys.stdout)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout early (`| head`): stop quietly, and point
        # stdout at devnull so the flush at interpreter exit does not fail
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def _write_numeric_rows(out, rows) -> None:
    """Write rows of equal length whose cells are all ``int``, ``float`` or
    ``bool`` to ``out``, in one write, with the bytes ``csv.writer`` gives them.

    The rows are flattened into one tuple of cells and formatted by a single
    ``%`` on a template of ``%r`` per cell, ``,`` between cells and ``\r\n``
    after each row, so the per-cell work runs in C.  ``%r`` is ``repr``:
    csv.writer writes a float by ``repr`` and an int or bool by ``str``, the
    same text; none of these texts holds a ``,``, ``"``, ``\r`` or ``\n``, so
    no cell is quoted.
    """
    rows = list(rows)
    if rows:
        row_format = ",".join(["%r"] * len(rows[0])) + "\r\n"
        out.write((row_format * len(rows)) % tuple(chain.from_iterable(rows)))


def _sample_blocks(h: HeavySample, zhat: np.ndarray):
    """simulate's rows, converted to Python values _BLOCK_ROWS at a time."""
    for lo in range(0, h.n, _BLOCK_ROWS):
        hi = min(lo + _BLOCK_ROWS, h.n)
        yield zip(range(lo + 1, hi + 1), h.w[lo:hi].tolist(), zhat[lo:hi].tolist())


def _cmd_simulate(args, argv) -> int:
    seed = SeedSpec(_effective_seed(args), args.stream)
    if not args.spec.is_spacing_law:
        raise DataError(f"{args.spec} is not a spacing law")
    z = draw(args.spec, seed.generator(), args.n)
    h = heavy_sample(z, args.c)
    table = ReportTable(
        ["index", "w", "scaled_log_spacing"], [],
        {"spec": args.spec.canonical(), "n": args.n, "scale_c": args.c,
         "master_seed": seed.master_seed, "stream": seed.stream_index},
    )
    _emit(table, args, argv, _sample_blocks(h, h.zhat))
    return 0


def _estimate_record(args, h: HeavySample) -> tuple:
    """The estimate table's row; every interval is the point +- one half-width,
    0 for none."""
    k = args.k if args.k is not None else h.n
    method, interval, s_cell, scale = args.method, "none", None, None
    if method == "quantile":
        k, interval, s_cell = h.n, "quantile_h", args.s
        point = estimators.quantile_estimator(np.log(h.w) - math.log(h.scale_c), args.s)
        scale = estimators.spacing_sigma(h, k) * math.sqrt(estimators.h_function(args.s))
    elif method == "hill":
        point = estimators.hill(h, k)
        if args.interval == "spacing":
            interval, scale = "spacing_variance", estimators.spacing_sigma(h, k)
        elif args.interval == "self":
            interval, scale = "hill_self", point
    else:
        method, point = "ml_uniform", estimators.ml_uniform(h, k)
    half = 0.0 if scale is None else estimators.half_width(scale, k, args.eps)
    return (method, point, point - half, point + half, k, 1.0 - args.eps, interval, s_cell)


def _cmd_estimate(args, argv) -> int:
    data = _read_column(args.input, args.allow_unsorted)
    h = HeavySample(scale_c=args.c, w=data)
    table = ReportTable(
        ["method", "gamma_hat", "lower", "upper", "k_used", "level", "interval_method", "s"],
        [_estimate_record(args, h)],
        {"n": h.n, "scale_c": args.c},
    )
    _emit(table, args, argv)
    return 0


def _cmd_fit(args, argv) -> int:
    data = _read_column(args.input, args.allow_unsorted)
    h = HeavySample(scale_c=args.c, w=data)
    k = args.k if args.k is not None else h.n
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
    experiment, default_specs, desk, paper = _FIGURES[args.id]
    settings = dict(paper if args.paper_scale else desk)
    settings.update((name, getattr(args, name)) for name in _FIGURE_SETTINGS
                    if getattr(args, name) is not None)
    cfg = ExperimentConfig(experiment=experiment, specs=tuple(args.spec or default_specs),
                           master_seed=_effective_seed(args), **settings)
    start = time.perf_counter()
    table = run_experiment(cfg, workers=args.workers)
    print(f"[{experiment}] wall time {time.perf_counter() - start:.2f}s", file=sys.stderr)
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
    except (DataError, ValueError, NotImplementedError, OSError, ReplicationError) as exc:
        print(f"renyitail: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
