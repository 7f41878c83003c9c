"""Run the benchmark over several seeds and report how steady each metric is.

    python3 perfbench/spread.py [--workloads a,b] [--seeds 1,2,...] [--seconds S] [--out FILE]

For every workload and end-to-end metric this prints the median, the
quartiles (``statistics.quantiles(values, n=4)``), the spread
(q3 - q1) / median and the metric's bound from BENCHMARK.json.  With
``--out`` it also makes one traced run per workload on the first seed and
writes all of it, with the uncalibrated seconds of ``info.seconds`` and the
machine facts of the last run, as JSON (``baseline.json`` is such a file).
Runs are sequential.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _run(workload: str, seed: str, seconds: int, trace: int) -> tuple[dict, dict]:
    """The info and result lines of one run.py run; exits on a failed run."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", seed,
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=seconds + 170)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    info, result = json.loads(lines[-2])["info"], json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: {result['failed']} failed operations")
    return info, result


def _summary(values: list[float], bound: float | None = None) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    out = {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median}
    if bound is not None:
        out["bound"] = bound
    return {**out, "runs": len(values)}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    p.add_argument("--seeds", default=",".join(str(s) for s in range(1, 11)))
    p.add_argument("--seconds", type=int, default=spec["run_seconds"])
    p.add_argument("--out", default=None)
    args = p.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seeds = args.seeds.split(",")
    report, uncalibrated, per_layer, machine = {}, {}, {}, None
    for workload in args.workloads.split(","):
        values = {name: [] for name in bounds}
        seconds = {}
        for seed in seeds:
            info, result = _run(workload, seed, args.seconds, 0)
            machine = info["machine"]
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
            for name, value in info["seconds"].items():
                seconds.setdefault(name, []).append(value)
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{name}={result['metrics'][name]['value']:.4g}" for name in bounds), flush=True)
        report[workload] = {name: _summary(vals, bounds[name]) for name, vals in values.items()}
        uncalibrated[workload] = {name: _summary(vals) for name, vals in seconds.items()}
        for name, st in report[workload].items():
            print(f"{workload} {name}: median {st['median']:.4g}, spread {st['spread']:.3f} "
                  f"(bound {st['bound']})", flush=True)
        if args.out:
            _, result = _run(workload, seeds[0], args.seconds, 1)
            per_layer[workload] = {name: m["value"] for name, m in result["metrics"].items()}
    if args.out:
        machine.pop("seed", None)
        Path(args.out).write_text(json.dumps(
            {"seeds": args.seeds, "seconds": args.seconds, "machine": machine,
             "workloads": report, "uncalibrated": uncalibrated,
             "per_layer": {"seed": seeds[0], **per_layer}}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
