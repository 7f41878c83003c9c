"""Spans around the public functions of each renyitail module, recorded from outside.

Nothing in the library is edited.  Each traced function is replaced, for the
duration of a ``with tracer.installed():`` block, in every package namespace
that holds it, so the wrapper sits where callers resolve the name (callers
import functions by name, e.g. ``from .rand_models import draw``).  Methods are
replaced on their class.  Spans carry a name, start, end, parent span, thread
and run id; parents come from a per-thread stack, and spans opened by worker
threads of a ``replication_map`` pool take the pool's span as their parent.
"""

from __future__ import annotations

import functools
import itertools
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import NamedTuple

PACKAGE = "renyitail"


def _count_arg(position: int, keyword: str):
    def qty(args, kwargs, result):
        return kwargs[keyword] if keyword in kwargs else args[position]
    return qty


def _result_len(args, kwargs, result):
    return len(result)


def _reported(args, kwargs, result):
    return 0 if result.insufficient else 1


# span name -> (public names, quantity recorded per call).  Names are looked up
# in every loaded module of the package, so a function keeps its span if it
# moves.  gof is too small to track; cli._read_column is private but is the
# data-column parser every file-reading command goes through.
TARGETS = {
    "rand_models.stream_open": (("SeedSpec.generator",), None),
    "rand_models.draw": (("draw",), _count_arg(2, "count")),
    "renyi.construct": (("generalized_renyi", "heavy_sample", "heavy_sample_from_sorted",
                         "HeavySample.__post_init__"), None),
    "renyi.spacings": (("scaled_log_spacings",), None),
    "renyi.oracle": (("psi_n", "moment_recursion", "cross_moment_recursion"), None),
    "estimators": (("hill", "hill_trajectory", "quantile_estimator", "empirical_quantile",
                    "h_function", "h_minimizer", "spacing_sigma", "ml_uniform",
                    "normal_quantile", "ci_spacing", "ci_hill_self", "ci_quantile"), None),
    "large_deviations.rate": (("rate_function", "gamma_family_rates",
                               "iid_comparison_rates"), None),
    "large_deviations.tail_oracle": (("exact_hill_tail", "log_gammaincc"), None),
    "large_deviations.mc_tail": (("mc_tail_logprob",), _reported),
    "likelihood.fit": (("ml_fit",), None),
    "experiments.run": (("run_experiment", "run_variance_curve", "run_hill_plot", "run_coverage",
                         "run_exponential_limit", "run_ld_check"), None),
    "experiments.to_csv": (("ReportTable.to_csv", "ReportTable.to_json"), _result_len),
    "cli.parse": (("_read_column",), _result_len),
    "cli.main": (("main",), None),
}
REPLICATION_MAP = "experiments.replication_map"
REP_FN = "experiments.rep_fn"


class Span(NamedTuple):
    sid: int
    parent: int | None
    name: str
    thread: int
    start: float
    end: float
    qty: float
    run_id: int


class Tracer:
    """Collects spans in memory while installed; ``run_id`` tags each operation."""

    def __init__(self):
        self.spans: list[Span] = []
        self.pool_workers: dict[int, int] = {}
        self.run_id = 0
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._pool_parent: int | None = None

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _call(self, name, fn, qty, args, kwargs, on_enter=None):
        stack = self._stack()
        parent = stack[-1] if stack else self._pool_parent
        sid = next(self._ids)
        if on_enter is not None:
            args, kwargs = on_enter(sid, args, kwargs)
        stack.append(sid)
        result = None
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            end = time.perf_counter()
            stack.pop()
            amount = qty(args, kwargs, result) if (qty is not None and result is not None) else 0
            self.spans.append(Span(sid, parent, name, threading.get_ident(), start, end,
                                   amount, self.run_id))

    def _wrap(self, name, fn, qty):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self._call(name, fn, qty, args, kwargs)
        return traced

    def _wrap_replication_map(self, fn):
        """Each replication's closure becomes a rep_fn span; worker-thread spans
        whose own stack is empty are parented to the pool's span."""

        def on_enter(sid, args, kwargs):
            workers = kwargs.get("workers", args[4] if len(args) > 4 else 1)
            self.pool_workers[sid] = workers
            self._pool_parent = sid
            rep_fn = self._wrap(REP_FN, args[0], None)
            return (rep_fn,) + tuple(args[1:]), kwargs

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            try:
                return self._call(REPLICATION_MAP, fn, _count_arg(1, "reps"), args, kwargs,
                                  on_enter)
            finally:
                self._pool_parent = None
        return traced

    @contextmanager
    def installed(self):
        """Patch every target wherever the package's modules hold it; restore on exit."""
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == PACKAGE or name.startswith(PACKAGE + ".")]
        plan = [(name, attr, qty) for name, (attrs, qty) in TARGETS.items() for attr in attrs]
        plan.append((REPLICATION_MAP, "replication_map", None))
        saved = []
        try:
            for name, attr, qty in plan:
                cls_name, _, attr = attr.rpartition(".")
                if cls_name:
                    cls = _lookup(modules, cls_name)
                    original = vars(cls).get(attr) if cls is not None else None
                    holders = [cls]
                else:
                    original = _lookup(modules, attr)
                    holders = [m for m in modules if vars(m).get(attr) is original]
                if original is None:
                    continue  # renamed or removed since: no spans for it
                if name == REPLICATION_MAP:
                    wrapper = self._wrap_replication_map(original)
                else:
                    wrapper = self._wrap(name, original, qty)
                for holder in holders:
                    saved.append((holder, attr, original))
                    setattr(holder, attr, wrapper)
            yield self
        finally:
            for holder, attr, original in reversed(saved):
                setattr(holder, attr, original)

    def write_csv(self, path, run_id: int) -> None:
        """Write the spans of one operation, one line per span."""
        with open(path, "w", encoding="utf-8") as f:
            f.write("run_id,span_id,parent,name,thread,start_s,end_s,qty\n")
            for s in self.spans:
                if s.run_id == run_id:
                    parent = "" if s.parent is None else s.parent
                    f.write(f"{s.run_id},{s.sid},{parent},{s.name},{s.thread},"
                            f"{s.start!r},{s.end!r},{s.qty}\n")


def _lookup(modules, attr: str):
    return next((vars(m)[attr] for m in modules if attr in vars(m)), None)


def _covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total, reach = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, hi)
        if b > a:
            total += b - a
            reach = b
    return total


def self_times(spans) -> dict[int, float]:
    """Span duration minus the part of it covered by its child spans."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    return {s.sid: (s.end - s.start) - _covered(children.get(s.sid, ()), s.start, s.end)
            for s in spans}


def layer_metrics(spans) -> dict[str, float]:
    """Per-layer counts and self times of one operation's spans."""
    own = self_times(spans)
    calls, qty, self_s = defaultdict(int), defaultdict(float), defaultdict(float)
    for s in spans:
        calls[s.name] += 1
        qty[s.name] += s.qty
        self_s[s.name] += own[s.sid]
    mc_tail_calls = calls["large_deviations.mc_tail"]
    return {
        "rand_models.stream_open.calls": calls["rand_models.stream_open"],
        "rand_models.stream_open.self_s": self_s["rand_models.stream_open"],
        "rand_models.draw.calls": calls["rand_models.draw"],
        "rand_models.draw.values": qty["rand_models.draw"],
        "rand_models.draw.self_s": self_s["rand_models.draw"],
        "renyi.construct.self_s": self_s["renyi.construct"],
        "renyi.spacings.self_s": self_s["renyi.spacings"],
        "renyi.oracle.calls": calls["renyi.oracle"],
        "renyi.oracle.self_s": self_s["renyi.oracle"],
        "estimators.calls": calls["estimators"],
        "estimators.self_s": self_s["estimators"],
        "large_deviations.rate.self_s": self_s["large_deviations.rate"],
        "large_deviations.tail_oracle.self_s": self_s["large_deviations.tail_oracle"],
        # share of k values reported out of those attempted; 0 when none attempted
        "large_deviations.mc_tail.useful_ratio": (
            qty["large_deviations.mc_tail"] / mc_tail_calls if mc_tail_calls else 0.0),
        "likelihood.fit.self_s": self_s["likelihood.fit"],
        "experiments.reps": qty[REPLICATION_MAP],
        "experiments.replication_map.self_s": self_s[REPLICATION_MAP],
        "experiments.rep_fn.self_s": self_s[REP_FN],
        "experiments.run.self_s": self_s["experiments.run"],
        "experiments.to_csv.self_s": self_s["experiments.to_csv"],
        "experiments.bytes_out": qty["experiments.to_csv"],
        "cli.parse.self_s": self_s["cli.parse"],
        "cli.lines_in": qty["cli.parse"],
        "cli.main.self_s": self_s["cli.main"],
        "trace.spans": len(spans),
    }


def worker_idle_share(spans, pool_workers: dict[int, int]) -> float:
    """1 - busy / (workers x pool wall) over replication_map pools with 2+ workers.

    Busy time is the time worker threads spend inside spans opened directly under
    the pool (stream opens and replication closures).  0 when no pool ran.
    """
    by_sid = {s.sid: s for s in spans}
    busy = capacity = 0.0
    for sid, workers in pool_workers.items():
        pool = by_sid.get(sid)
        if pool is None or workers < 2:
            continue
        capacity += workers * (pool.end - pool.start)
        busy += sum(s.end - s.start for s in spans
                    if s.parent == sid and s.thread != pool.thread)
    return 1.0 - busy / capacity if capacity else 0.0
