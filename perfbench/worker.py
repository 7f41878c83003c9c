"""One measuring process: set up a workload, then time and check its operation.

Started by run.py; imports renyitail from the checkout's ``src``.

    python3 perfbench/worker.py --workload NAME --seed N --workdir DIR
                                --seconds S --trace 0|1 [--spans PATH] [--tiny]

It records the monotonic clock once the package is imported and the
workload's specs, configs and evaluation points are built, and times the
calibration loop right after.  It then runs the operation with each worker
count the workload has (untraced, or untraced plus traced with
``--trace 1``) in rounds, for as many rounds as fit in S seconds (at least
one), checking every output.  The process's peak resident memory is read
right after its first operation, before any output is read or checked.  The
last line of its standard output is one JSON object of raw samples.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
import time
import traceback
from pathlib import Path

import numpy as np
import scipy
from tracer import Tracer, layer_metrics, worker_idle_share

SRC = Path(__file__).resolve().parent.parent / "src"


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--workdir", required=True)
    p.add_argument("--seconds", type=float, default=1.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--spans", default=None, help="where to write one traced run's spans")
    p.add_argument("--tiny", action="store_true", help="smoke-test sizes")
    return p.parse_args(argv)


def _import_from_checkout() -> None:
    sys.path.insert(0, str(SRC))
    import renyitail

    if not Path(renyitail.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"renyitail imported from {renyitail.__file__}, not from {SRC}")


def calibrate() -> float:
    """Time a fixed mix of interpreter, numpy and float-text work that uses no renyitail code.

    The shared machine's speed drifts by tens of percent within a minute; an
    operation's time divided by the calibration time measured around it cancels
    most of that drift.
    """
    start = time.perf_counter()
    acc, table = 0.0, {}
    for i in range(40000):
        acc += i * 0.5
        table[i & 255] = acc
    grid = np.linspace(0.1, 1.0, 5000)
    for _ in range(200):
        acc += float(np.cumsum(np.log(grid))[-1])
    text = ",".join(repr(float(x)) for x in grid[:2000] * acc)
    acc += sum(float(t) for t in text.split(","))
    return time.perf_counter() - start


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure(wl, args) -> dict:
    tracer = Tracer()
    plan = [(workers, False) for workers in wl.workers]
    if args.trace:
        plan = [(1, False)] + [(workers, True) for workers in wl.workers]
    # per kind of operation: [wall_s, calibration_s, items] of each one that completed
    samples = {"w1": [], "w2": [], "traced_w1": [], "traced_w2": []}
    layers, idle = [], []
    attempted = failed = 0
    reference, problems_seen, kept_run, peak_rss_mb = None, [], None, None
    deadline = time.perf_counter() + args.seconds
    cal_before = setup_cal = calibrate()
    while True:
        round_start = time.perf_counter()
        for workers, traced in plan:
            attempted += 1
            tracer.run_id = attempted
            res, problems = None, []
            try:
                if traced:
                    with tracer.installed():
                        res = wl.run(workers)
                else:
                    res = wl.run(workers)
            except Exception:  # a failed operation is counted, and the run goes on
                problems = [traceback.format_exc()]
            if res is not None and peak_rss_mb is None:
                peak_rss_mb = _peak_rss_mb()
            cal_after = calibrate()
            cal, cal_before = (cal_before + cal_after) / 2.0, cal_after
            outputs = items = None
            if res is not None:
                try:
                    outputs = wl.read_outputs(res.outputs)
                    items = wl.items(outputs)
                    problems = wl.check(outputs, reference)
                except Exception:
                    problems = [traceback.format_exc()]
            if problems:
                failed += 1
                problems_seen.extend(problems[:3])
                print(f"operation {attempted} (workers={workers}) failed:", *problems[:3],
                      sep="\n  ", file=sys.stderr)
            if items is None:  # the operation or reading its outputs raised
                continue
            if reference is None:
                reference = outputs
            samples[("traced_" if traced else "") + f"w{workers}"].append(
                [res.wall_s, cal, items])
            if traced:
                spans = [s for s in tracer.spans if s.run_id == attempted]
                if workers == 1:
                    layers.append(layer_metrics(spans))
                    kept_run = attempted
                else:
                    idle.append(worker_idle_share(spans, tracer.pool_workers))
                tracer.spans = [s for s in tracer.spans if s.run_id == kept_run]
                tracer.pool_workers.clear()
        now = time.perf_counter()
        # Stop before a round that would end past the deadline, so that a run
        # lasts about --seconds plus its processes' set-up, not a round more.
        if now + (now - round_start) > deadline:
            break
    if args.spans and kept_run is not None:
        tracer.write_csv(args.spans, kept_run)
    digests = {}
    if reference is not None:
        from workloads import strip_invocation

        digests = {name: hashlib.sha256(strip_invocation(value)).hexdigest()
                   for name, value in reference.items() if isinstance(value, bytes)}
    return {
        "samples": samples,
        "layers": layers,
        "worker_idle_share": idle,
        "attempted": attempted,
        "failed": failed,
        "problems": problems_seen[:10],
        "peak_rss_mb": peak_rss_mb if peak_rss_mb is not None else _peak_rss_mb(),
        "setup_cal_s": setup_cal,
        "sha256": digests,
        "versions": {"numpy": np.__version__, "scipy": scipy.__version__},
    }


def main(argv=None) -> int:
    args = _parse(argv)
    _import_from_checkout()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload](args.seed, args.workdir, tiny=args.tiny)
    ready = time.monotonic()
    print(json.dumps({"ready": ready, **measure(wl, args)}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
