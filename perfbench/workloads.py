"""The benchmark's workloads: inputs from a seed, one timed operation, output checks.

Each workload object is built during set-up (specs, configs, evaluation
points).  ``run(workers)`` performs one operation and returns its wall time
and what it produced in memory (exit codes, oracle values); it allocates
nothing of the benchmark's own, so that the process's peak memory right after
it is the program's.  ``read_outputs`` then adds the bytes of the files the
operation wrote, ``items`` counts the work items completed, and ``check``
returns the list of problems found in the outputs (empty when correct).
``workers`` lists the worker counts a workload runs with: 1 and 2 (the
library's ``--workers``) on the ``mc_*`` workloads, and only 1 on the others,
whose commands and functions have no workers option.  Library functions are
looked up on their module at call time so that the tracer's wrappers are seen.
"""

from __future__ import annotations

import csv
import io
import math
import os
import time
from dataclasses import dataclass

import numpy as np

from renyitail import cli, estimators, large_deviations, renyi
from renyitail.experiments import ExperimentConfig
from renyitail.rand_models import bernoulli, exponential, gamma_law, parse_spec, uniform

Z_BOUND = 5.0  # standard errors allowed between a Monte Carlo value and its target
ORACLE_RTOL = 1e-9


@dataclass
class OpResult:
    wall_s: float
    outputs: dict


def strip_invocation(table: bytes) -> bytes:
    """Table bytes without the '# invocation=' meta line, which names paths and flags."""
    return b"".join(line for line in table.splitlines(keepends=True)
                    if not line.startswith(b"# invocation="))


def parse_table(table: bytes) -> tuple[list[str], list[list[str]]]:
    """Header and rows of a CSV table emitted by the CLI, meta lines skipped."""
    text = table.decode("utf-8")
    body = "".join(line for line in io.StringIO(text, newline="") if not line.startswith("#"))
    rows = list(csv.reader(io.StringIO(body, newline="")))
    return rows[0], rows[1:]


def _timed_main(argv: list[str]) -> tuple[int, float]:
    start = time.perf_counter()
    code = cli.main(argv)
    return code, time.perf_counter() - start


def _read(path: str) -> bytes:
    with open(path, "rb") as f:
        return f.read()


def _same_tables(outputs: dict, reference: dict | None, names) -> list[str]:
    if reference is None:
        return []
    return [f"{name}: bytes differ from the reference run" for name in names
            if strip_invocation(outputs[name]) != strip_invocation(reference[name])]


class _Figure:
    """One ``renyitail figure`` invocation written to a file."""

    figure_id = ""
    workers = (1, 2)

    def __init__(self, seed: int, workdir: str):
        self.seed = seed % 2**64
        self.out = os.path.join(workdir, f"{self.name}.csv")

    def argv(self, workers: int) -> list[str]:
        return ["figure", "--id", self.figure_id, "--n", str(self.cfg.n),
                "--reps", str(self.cfg.reps), "--seed", str(self.seed),
                "--workers", str(workers), "--out", self.out]

    def run(self, workers: int) -> OpResult:
        code, wall = _timed_main(self.argv(workers))
        return OpResult(wall, {"code": code})

    def read_outputs(self, outputs: dict) -> dict:
        return {**outputs, "table": _read(self.out)}


class McTinyReps(_Figure):
    """``figure --id ld``: many replications of at most 50 draws each."""

    name = "mc_tiny_reps"
    figure_id = "ld"

    def __init__(self, seed: int, workdir: str, tiny: bool = False):
        super().__init__(seed, workdir)
        self.cfg = ExperimentConfig("ld_check", (parse_spec("exp:gamma=1"),), n=2000,
                                    reps=500 if tiny else 4000, master_seed=self.seed, y=1.5)

    def items(self, outputs: dict) -> int:
        """Replications run: reps for each k value not declined."""
        header, rows = parse_table(outputs["table"])
        flag = header.index("insufficient")
        return self.cfg.reps * sum(1 for row in rows if row[flag] == "0")

    def check(self, outputs: dict, reference: dict | None = None) -> list[str]:
        problems = [] if outputs["code"] == 0 else [f"exit code {outputs['code']}"]
        header, rows = parse_table(outputs["table"])
        col = {name: header.index(name) for name in ("k", "mc", "mc_se", "exact", "insufficient")}
        reported = [row for row in rows if row[col["insufficient"]] == "0"]
        if not reported:
            problems.append("no k value reported")
        for row in reported:
            mc, se, exact = (float(row[col[c]]) for c in ("mc", "mc_se", "exact"))
            if not abs(mc - exact) <= Z_BOUND * se:
                problems.append(f"k={row[col['k']]}: mc {mc} is more than "
                                f"{Z_BOUND} se ({se}) from exact {exact}")
        return problems + _same_tables(outputs, reference, ["table"])


class McWideReps(_Figure):
    """``figure --id 3`` at the published n: few replications over wide arrays."""

    name = "mc_wide_reps"
    figure_id = "3"

    def __init__(self, seed: int, workdir: str, tiny: bool = False):
        super().__init__(seed, workdir)
        # the laws `figure --id 3` runs by default
        specs = tuple(parse_spec(s) for s in ("unif:gamma=0.5", "bern:gamma=0.5", "exp:gamma=0.5"))
        self.cfg = ExperimentConfig("coverage", specs, n=200 if tiny else 5000,
                                    reps=100 if tiny else 300, master_seed=self.seed)

    def items(self, outputs: dict) -> int:
        """Replications run: reps for each law."""
        header, _ = parse_table(outputs["table"])
        return self.cfg.reps * sum(1 for c in header if c.endswith("_spacing"))

    def check(self, outputs: dict, reference: dict | None = None) -> list[str]:
        problems = [] if outputs["code"] == 0 else [f"exit code {outputs['code']}"]
        header, rows = parse_table(outputs["table"])
        target = 1.0 - self.cfg.eps
        bound = Z_BOUND * math.sqrt(self.cfg.eps * (1.0 - self.cfg.eps) / self.cfg.reps)
        last = rows[-1]
        if int(last[0]) != self.cfg.n:
            problems.append(f"largest k is {last[0]}, expected {self.cfg.n}")
        columns = [j for j, c in enumerate(header) if c.endswith("_spacing")]
        if len(columns) != len(self.cfg.specs):
            problems.append(f"{len(columns)} spacing columns for {len(self.cfg.specs)} laws")
        for j in columns:
            if not abs(float(last[j]) - target) <= bound:
                problems.append(f"{header[j]} at k={last[0]}: coverage {last[j]} "
                                f"outside {target} +- {bound:.4f}")
        return problems + _same_tables(outputs, reference, ["table"])


class CliIo:
    """simulate to a file, then two estimates and a fit on its w column."""

    name = "cli_io"
    workers = (1,)
    READERS = {
        "hill": ["estimate", "--method", "hill", "--c", "1"],
        "quantile": ["estimate", "--method", "quantile", "--c", "1"],
        "fit": ["fit", "--family", "gamma", "--r", "2", "--c", "1"],
    }

    def __init__(self, seed: int, workdir: str, tiny: bool = False):
        self.spec = parse_spec("exp:gamma=0.5")
        self.n = 2000 if tiny else 40000
        self.seed = seed % 2**64
        self.workdir = workdir
        self.data = os.path.join(workdir, "w.txt")

    def _path(self, name: str) -> str:
        return os.path.join(self.workdir, f"{name}.csv")

    def _reader(self, name: str) -> tuple[int, float]:
        return _timed_main([self.READERS[name][0], self.data] + self.READERS[name][1:]
                           + ["--out", self._path(name)])

    def _extract_w(self) -> None:
        """Write the w column of simulate's table, one value a line, streaming.

        This stands for the user's shell pipe (``cut``); it is not timed, and it
        holds one line at a time so that it adds nothing to the peak memory.
        """
        with open(self._path("simulate"), encoding="utf-8") as src, \
                open(self.data, "w", encoding="utf-8") as dst:
            lines = (line for line in src if not line.startswith("#"))
            column = next(lines).rstrip("\r\n").split(",").index("w")
            for line in lines:
                dst.write(line.rstrip("\r\n").split(",")[column] + "\n")

    def run(self, workers: int = 1) -> OpResult:
        if workers != 1:
            raise ValueError("simulate, estimate and fit have no workers option")
        code, wall = _timed_main(["simulate", "--spec", self.spec.canonical(), "--n", str(self.n),
                                  "--seed", str(self.seed), "--out", self._path("simulate")])
        codes = {"code.simulate": code}
        self._extract_w()
        for name in self.READERS:
            codes[f"code.{name}"], reader_wall = self._reader(name)
            wall += reader_wall
        return OpResult(wall, codes)

    def read_outputs(self, outputs: dict) -> dict:
        return {**outputs, **{name: _read(self._path(name)) for name in ("simulate", *self.READERS)}}

    def items(self, outputs: dict) -> int:
        """One: the operation is a fixed pipeline, not a count of replications."""
        return 1

    def check(self, outputs: dict, reference: dict | None = None) -> list[str]:
        problems = [f"{k}: exit code {v}" for k, v in outputs.items()
                    if k.startswith("code.") and v != 0]
        _, rows = parse_table(outputs["simulate"])
        if len(rows) != self.n:
            problems.append(f"simulate wrote {len(rows)} rows, expected {self.n}")
        cell = {}
        for name in self.READERS:
            header, rows = parse_table(outputs[name])
            cell[name] = rows[0][header.index("gamma_hat")]
        if cell["fit"] != cell["hill"]:
            problems.append(f"fit gamma_hat {cell['fit']} differs from hill {cell['hill']}")
        sd = math.sqrt(self.spec.variance)
        for name, multiplier in (("hill", 1.0), ("quantile", estimators.h_function(0.797))):
            bound = Z_BOUND * sd * math.sqrt(multiplier) / math.sqrt(self.n)
            if not abs(float(cell[name]) - self.spec.gamma) <= bound:
                problems.append(f"{name} estimate {cell[name]} outside "
                                f"{self.spec.gamma} +- {bound:.5f}")
        return problems + _same_tables(outputs, reference, ["simulate", *self.READERS])


class Oracles:
    """Exact finite-n and large-deviation oracles at seed-drawn evaluation points."""

    name = "oracles"
    workers = (1,)

    def __init__(self, seed: int, workdir: str, tiny: bool = False):
        rng = np.random.default_rng(seed % 2**64)
        g = float(rng.uniform(0.3, 1.5))
        r = float(rng.uniform(0.5, 4.0))
        p = float(rng.uniform(0.2, 0.8))
        self.exp, self.gamma = exponential(g), gamma_law(r, g)
        self.psi_n = 200 if tiny else 4000
        self.moment_n = 500 if tiny else 8000
        self.cross_n = 1000 if tiny else 80000
        n_points = 5 if tiny else 50
        n_rates = 10 if tiny else 100
        self.ts = [float(t) / g for t in rng.uniform(-5.0, 5.0, n_points)]
        self.rate_points = [
            (self.exp, [g * float(u) for u in rng.uniform(0.05, 4.0, n_rates)]),
            (self.gamma, [g * float(u) for u in rng.uniform(0.05, 4.0, n_rates)]),
            (uniform(g), [2.0 * g * float(u) for u in rng.uniform(0.01, 0.99, n_rates)]),
            (bernoulli(p), [float(u) for u in rng.uniform(0.01, 0.99, n_rates)]),
        ]
        self.tail_points = [(spec, int(k), g * float(y)) for spec in (self.exp, self.gamma)
                            for k, y in zip(rng.integers(1, 400, n_points),
                                            rng.uniform(0.5, 2.5, n_points))]

    def calls(self) -> list[tuple]:
        """(module, function, args) of every oracle evaluation, in output order."""
        out = [(renyi, "psi_n", (self.exp, self.psi_n, t)) for t in self.ts]
        out.append((renyi, "moment_recursion", (self.exp, 6, self.moment_n)))
        out.append((renyi, "cross_moment_recursion", (self.exp, self.cross_n)))
        out += [(large_deviations, "rate_function", (spec, z))
                for spec, zs in self.rate_points for z in zs]
        out += [(large_deviations, "exact_hill_tail", args) for args in self.tail_points]
        return out

    def run(self, workers: int = 1) -> OpResult:
        if workers != 1:
            raise ValueError("the oracles have no workers option")
        calls = [(getattr(module, fname), args) for module, fname, args in self.calls()]
        start = time.perf_counter()
        values = [fn(*args) for fn, args in calls]
        wall = time.perf_counter() - start
        return OpResult(wall, {"values": values})

    def read_outputs(self, outputs: dict) -> dict:
        return outputs

    def items(self, outputs: dict) -> int:
        """One: the operation is a fixed set of evaluations, not a count of replications."""
        return 1

    def check(self, outputs: dict, reference: dict | None = None) -> list[str]:
        calls = self.calls()
        problems = [] if len(outputs["values"]) == len(calls) else [
            f"{len(outputs['values'])} values for {len(calls)} evaluations"]
        g = self.exp.gamma
        for (_, fname, args), value in zip(calls, outputs["values"]):
            spec = args[0]
            if fname == "psi_n":
                want = 1.0 / (1.0 - 1j * g * args[2])
                ok = abs(value - want) <= ORACLE_RTOL
            elif fname == "moment_recursion":
                k = np.arange(1, 7)[:, None]
                want = np.array([math.factorial(j) for j in range(1, 7)])[:, None] * g ** k
                ok = np.all(np.abs(value[1:, 1:] / want - 1.0) <= ORACLE_RTOL)
            elif fname == "cross_moment_recursion":
                ok = np.all(np.abs(value[2:] / g**2 - 1.0) <= ORACLE_RTOL)
            elif fname == "rate_function":
                want = self._rate_closed_form(spec, args[1])
                ok = (math.isfinite(value) and value >= 0.0) if want is None else \
                    abs(value - want) <= ORACLE_RTOL * max(1.0, want)
            else:
                k, y = args[1], args[2]
                shape = spec.r if spec.kind == "gamma" else 1.0
                want = _log_upper_gamma(k * shape, shape / spec.gamma * k * y)
                ok = abs(value - want) <= ORACLE_RTOL * max(1.0, abs(want))
            if not ok:
                problems.append(f"{fname}{tuple(map(str, args))} = {value!r} is wrong")
        if reference is not None and not _same_values(outputs["values"], reference["values"]):
            problems.append("values differ from the reference run")
        return problems

    @staticmethod
    def _rate_closed_form(spec, z: float) -> float | None:
        if spec.kind in ("exp", "gamma"):
            r = spec.r if spec.kind == "gamma" else 1.0
            u = z / spec.gamma
            return r * (u - 1.0 - math.log(u))
        if spec.kind == "bern":
            p = spec.gamma
            return z * math.log(z / p) + (1.0 - z) * math.log((1.0 - z) / (1.0 - p))
        return None  # uniform: no closed form; checked for finiteness and sign


def _log_upper_gamma(a: float, x: float) -> float:
    """log Q(a, x) in 30-digit arithmetic; scipy's Q underflows to 0 deep in the tail."""
    import mpmath  # checks only: not part of the benchmark's set-up

    with mpmath.workdps(30):
        return float(mpmath.log(mpmath.gammainc(a, x, mpmath.inf, regularized=True)))


def _same_values(a: list, b: list) -> bool:
    return len(a) == len(b) and all(
        np.array_equal(x, y, equal_nan=True) if isinstance(x, np.ndarray) else x == y
        for x, y in zip(a, b))


WORKLOADS = {cls.name: cls for cls in (McTinyReps, McWideReps, CliIo, Oracles)}
