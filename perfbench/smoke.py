"""Smoke test of the benchmark itself, at tiny sizes.

    python3 perfbench/smoke.py

For every workload it checks that the operation passes its output checks with
each worker count it has, that deliberately corrupted outputs are counted as
failures, that a traced operation yields every per-layer metric and leaves the
library unpatched, and that run.py prints a result line naming exactly the
metrics of BENCHMARK.json.  It also checks that run.py refuses to run in a
directory holding only BENCHMARK.json and perfbench/.  Exits 0 when all hold.
"""

from __future__ import annotations

import csv
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import renyitail.rand_models  # noqa: E402
from tracer import Tracer, layer_metrics  # noqa: E402
from workloads import WORKLOADS, parse_table  # noqa: E402

SEED = 20240404
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _set_cell(table: bytes, row: int, column: str, value: str) -> bytes:
    """Rewrite one data cell of a CLI CSV table, keeping its meta lines."""
    text = table.decode("utf-8")
    meta = "".join(line for line in io.StringIO(text, newline="") if line.startswith("#"))
    header, rows = parse_table(table)
    rows[row][header.index(column)] = value
    buf = io.StringIO()
    csv.writer(buf).writerows([header, *rows])
    return (meta + buf.getvalue()).encode("utf-8")


def _corrupt_ld(out: dict) -> dict:
    header, rows = parse_table(out["table"])
    row = next(i for i, r in enumerate(rows) if r[header.index("insufficient")] == "0")
    mc = float(rows[row][header.index("mc")])
    return {**out, "table": _set_cell(out["table"], row, "mc", repr(mc + 1.0))}


def _corrupt_coverage(out: dict) -> dict:
    header, rows = parse_table(out["table"])
    column = next(c for c in header if c.endswith("_spacing"))
    return {**out, "table": _set_cell(out["table"], len(rows) - 1, column, "0.5")}


def _corrupt_fit(out: dict) -> dict:
    header, rows = parse_table(out["fit"])
    gamma_hat = float(rows[0][header.index("gamma_hat")])
    return {**out, "fit": _set_cell(out["fit"], 0, "gamma_hat", repr(gamma_hat * (1 + 1e-12)))}


def _corrupt_oracle(out: dict) -> dict:
    values = list(out["values"])
    values[0] = values[0] * (1.0 + 1e-6)
    return {**out, "values": values}


def _flip_byte(out: dict) -> dict:
    """A copy whose first byte output differs by one digit, for the reference check."""
    name = next((k for k, v in out.items() if isinstance(v, bytes)), None)
    if name is None:
        return _corrupt_oracle(out)
    data = out[name]
    cut = data.rindex(b"\n", 0, len(data) - 1) + 1  # start of the last line
    digit = next(i for i in range(cut, len(data)) if data[i:i + 1].isdigit())
    swapped = b"1" if data[digit:digit + 1] != b"1" else b"2"
    return {**out, name: data[:digit] + swapped + data[digit + 1:]}


CORRUPT = {"mc_tiny_reps": _corrupt_ld, "mc_wide_reps": _corrupt_coverage,
           "cli_io": _corrupt_fit, "oracles": _corrupt_oracle}


def check_in_process(workdir: Path) -> list[str]:
    failures = []
    traced_names = {m["name"] for m in SPEC["per_layer"]} - {
        "experiments.worker_idle_share", "trace.overhead_s"}  # added by run.py
    original_draw = renyitail.rand_models.draw
    for name, cls in WORKLOADS.items():
        before = len(failures)
        wl = cls(SEED, str(workdir), tiny=True)
        one = wl.read_outputs(wl.run(1).outputs)
        checks = [("workers=1", wl.check(one))]
        checks += [(f"workers={w}", wl.check(wl.read_outputs(wl.run(w).outputs), one))
                   for w in wl.workers if w != 1]
        checks += [("corrupted", wl.check(CORRUPT[name](one))),
                   ("not as reference", wl.check(one, _flip_byte(one)))]
        for label, problems in checks:
            expect_problems = label in ("corrupted", "not as reference")
            if bool(problems) != expect_problems:
                failures.append(f"{name} {label}: problems {problems}")
        tracer = Tracer()
        with tracer.installed():
            wl.run(1)
        metrics = layer_metrics(tracer.spans)
        if set(metrics) != traced_names:
            failures.append(f"{name}: traced metrics {sorted(set(metrics) ^ traced_names)}")
        if renyitail.rand_models.draw is not original_draw:
            failures.append(f"{name}: tracer left rand_models.draw patched")
        print(f"in-process {name}: {'ok' if len(failures) == before else 'FAILED'}")
    return failures


def _run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", str(SEED), "--seconds", "1", "--trace", str(trace), "--tiny"],
                          cwd=cwd, capture_output=True, text=True, timeout=300)


def check_command() -> list[str]:
    failures = []
    for workload in (w["name"] for w in SPEC["workloads"]):
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            proc = _run(ROOT, workload, trace)
            try:
                result = json.loads(proc.stdout.strip().splitlines()[-1])
            except (IndexError, json.JSONDecodeError):
                failures.append(f"{workload} trace={trace}: exit {proc.returncode}, "
                                f"no result line\n{proc.stderr[-2000:]}")
                continue
            want = {m["name"]: m["unit"] for m in SPEC[section]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if (proc.returncode != 0 or set(result) != {"correct", "attempted", "failed", "metrics"}
                    or not result["correct"] or result["failed"] or got != want
                    or not all(isinstance(v["value"], (int, float))
                               for v in result["metrics"].values())):
                failures.append(f"{workload} trace={trace}: bad result {result}")
            print(f"run.py {workload} trace={trace}: exit {proc.returncode}")
    return failures


def check_bare_directory(workdir: Path) -> list[str]:
    bare = workdir / "bare"
    bare.mkdir()
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(bare, SPEC["workloads"][0]["name"], 0)
    print(f"run.py without sources: exit {proc.returncode}")
    if proc.returncode == 0 or proc.stdout.strip():
        return [f"bare directory: exit {proc.returncode}, stdout {proc.stdout!r}"]
    return []


def main() -> int:
    workdir = ROOT / ".bench_out" / "smoke"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        failures = check_in_process(workdir) + check_command() + check_bare_directory(workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for failure in failures:
        print("FAIL", failure)
    print("smoke test passed" if not failures else f"{len(failures)} smoke failures")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
