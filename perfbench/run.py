"""Benchmark entry point: run one workload of renyitail and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The package is imported from the checkout's
``src``; without it the benchmark exits with code 2 before measuring.

The S seconds are split over ten fresh worker processes run one after the
other, so that timings average over interpreter start-up and memory layout,
and each process's set-up time is one ``setup_s`` sample.  Each times the
workload's operation with every worker count it has (1 and 2 on the ``mc_*``
workloads, 1 on the others) and checks every output.
With ``--trace 0`` the end-to-end metrics of BENCHMARK.json are printed.
With ``--trace 1`` untraced and traced operations alternate and the
per-layer metrics are printed, with the tracing overhead.  The last line of
standard output is the JSON result; the line before it carries machine facts,
sample counts and table digests.  Artifacts (the full record, one traced
operation's spans) go to ``.bench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
WORKER = Path(__file__).resolve().parent / "worker.py"
PROCESSES = 10
DEADLINE_S = 170.0  # the whole run, including every process's set-up and checks
# Set-up times are scaled to a machine on which worker.calibrate takes this long
# (about its median on the two-vCPU VM the baseline was made on).
REFERENCE_CAL_S = 0.012


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="smoke-test sizes")
    return p.parse_args(argv)


def _child_env(workdir: Path) -> dict:
    env = dict(os.environ)
    env.pop("RENYI_SEED", None)  # it would override the CLI's --seed
    env.pop("PYTHONPATH", None)
    # one thread per worker: the benchmark runs at most two
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["TMPDIR"] = str(workdir)
    return env


def _run_child(args, workdir: Path, seconds: float, spans: Path | None,
               deadline: float) -> tuple[dict, str]:
    """Run one worker.py to completion; return its result (set-up time added) and stderr."""
    cmd = [sys.executable, str(WORKER), "--workload", args.workload, "--seed", str(args.seed),
           "--workdir", str(workdir), "--seconds", str(seconds), "--trace", str(args.trace)]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    if args.tiny:
        cmd.append("--tiny")
    started = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=_child_env(workdir),
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(timeout=max(deadline - started, 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise SystemExit("perfbench: worker process timed out")
    if proc.returncode != 0 or not out.strip():
        sys.stderr.write(err[-4000:])
        raise SystemExit(f"perfbench: worker process exited with code {proc.returncode}")
    raw = json.loads(out.strip().splitlines()[-1])
    raw["setup_s"] = raw.pop("ready") - started
    return raw, err


def measure(args, workdir: Path, spans: Path) -> tuple[dict, str]:
    """Pool the samples of PROCESSES worker runs; differing digests count as a failure."""
    deadline = time.monotonic() + DEADLINE_S
    runs = [_run_child(args, workdir, args.seconds / PROCESSES,
                       spans if i == PROCESSES - 1 else None, deadline)
            for i in range(PROCESSES)]
    first = runs[0][0]
    pooled = {
        "samples": {k: [x for raw, _ in runs for x in raw["samples"][k]] for k in first["samples"]},
        "setup_s": [raw["setup_s"] for raw, _ in runs],
        "setup_cal_s": [raw["setup_cal_s"] for raw, _ in runs],
        "peak_rss_mb": [raw["peak_rss_mb"] for raw, _ in runs],
        "attempted": sum(raw["attempted"] for raw, _ in runs),
        "failed": sum(raw["failed"] for raw, _ in runs),
        "sha256": first["sha256"],
        "versions": first["versions"],
    }
    for key in ("layers", "worker_idle_share", "problems"):
        pooled[key] = [x for raw, _ in runs for x in raw[key]]
    for raw, _ in runs[1:]:
        if raw["sha256"] != first["sha256"]:
            pooled["failed"] += 1
            pooled["problems"].append(f"output digests differ between processes: {raw['sha256']}")
    return pooled, "".join(err for _, err in runs)


def _last_level_cache() -> str | None:
    """Size of the highest-level cache of CPU 0 as the kernel reports it, e.g. '32768K'."""
    caches = Path("/sys/devices/system/cpu/cpu0/cache")
    try:
        levels = [(int((d / "level").read_text()), (d / "size").read_text().strip())
                  for d in caches.glob("index*")]
    except (OSError, ValueError):
        return None
    return max(levels)[1] if levels else None


def _machine(seed: int, versions: dict) -> dict:
    return {
        "cores": os.cpu_count(),
        "last_level_cache": _last_level_cache(),
        "python": platform.python_version(),
        **versions,
        "git_commit": _git_commit(),
        "seed": seed,
    }


def _git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git; None outside a repository."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    path = ROOT / ".git" / ref[5:]
    if path.is_file():
        return path.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def _spread(values: list[float]) -> dict:
    out = {"n": len(values), "median": statistics.median(values), "max": max(values)}
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        out.update(q1=q1, q3=q3)
    return out


def _median(samples, value) -> float:
    return statistics.median(value(wall, cal, items) for wall, cal, items in samples)


def end_to_end(raw: dict) -> dict:
    """Operation times are divided by the calibration time measured around them.

    Workloads without a workers option have no two-worker operations; there
    ``wall_w2_cal`` repeats ``wall_cal``, and ``reps_per_cal`` (one item per
    operation) is the reciprocal of ``wall_cal``.
    """
    w1 = raw["samples"]["w1"]
    w2 = raw["samples"]["w2"] or w1
    return {
        "wall_cal": _median(w1, lambda wall, cal, items: wall / cal),
        "wall_w2_cal": _median(w2, lambda wall, cal, items: wall / cal),
        "setup_s": statistics.median(setup * REFERENCE_CAL_S / cal for setup, cal
                                     in zip(raw["setup_s"], raw["setup_cal_s"])),
        "reps_per_cal": _median(w1, lambda wall, cal, items: items * cal / wall),
        "peak_rss_mb": statistics.median(raw["peak_rss_mb"]),
    }


def in_seconds(raw: dict) -> dict:
    """The same figures without calibration, for reading; they drift with the machine."""
    out = {"calibration_s": _median(raw["samples"]["w1"], lambda wall, cal, items: cal),
           "setup_s": statistics.median(raw["setup_s"])}
    for name, key in (("wall_s", "w1"), ("wall_s_w2", "w2"), ("traced_wall_s", "traced_w1")):
        if raw["samples"][key]:
            out[name] = _median(raw["samples"][key], lambda wall, cal, items: wall)
    out["reps_per_s"] = _median(raw["samples"]["w1"], lambda wall, cal, items: items / wall)
    return out


def per_layer(raw: dict) -> dict:
    layers = raw["layers"]
    out = {name: statistics.median(op[name] for op in layers) for name in layers[0]}
    idle = raw["worker_idle_share"]
    out["experiments.worker_idle_share"] = statistics.median(idle) if idle else 0.0
    seconds = in_seconds(raw)
    out["trace.overhead_s"] = seconds["traced_wall_s"] - seconds["wall_s"]
    return out


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "renyitail" / "__init__.py").is_file():
        print(f"perfbench: no renyitail sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer" if args.trace else "end_to_end"]
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"tmp-{os.getpid()}"
    workdir.mkdir()
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        raw, err = measure(args, workdir, OUT / f"spans-{tag}.csv")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    attempted, failed = raw["attempted"], raw["failed"]
    if failed:
        sys.stderr.write(err[-4000:])
    if not raw["samples"]["w1"] or (args.trace and not raw["layers"]):
        print("perfbench: no operation completed", file=sys.stderr)
        return 1
    values = per_layer(raw) if args.trace else end_to_end(raw)
    missing = {m["name"] for m in declared} ^ set(values)
    if missing:
        print(f"perfbench: metrics do not match BENCHMARK.json: {sorted(missing)}", file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    info = {
        "workload": args.workload,
        "machine": _machine(args.seed, raw["versions"]),
        "fail_share": failed / attempted,
        "seconds": in_seconds(raw),
        "samples": {name: _spread([wall for wall, _, _ in v])
                    for name, v in raw["samples"].items() if v},
        "setup_samples": raw["setup_s"],
        "sha256": raw["sha256"],
        "problems": raw["problems"],
    }
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    (OUT / f"result-{tag}.json").write_text(json.dumps({"info": info, "result": result},
                                                       indent=1))
    for name, m in metrics.items():
        print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']}", file=sys.stderr)
    for name, value in info["seconds"].items():
        unit = "1/s" if name == "reps_per_s" else "s"
        print(f"{args.workload} {name} = {value:.6g} {unit} (uncalibrated)", file=sys.stderr)
    print(f"{args.workload} fail_share = {info['fail_share']:.6g} (failed {failed} "
          f"of {attempted} operations)", file=sys.stderr)
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
