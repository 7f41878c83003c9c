"""The seeded replication engine: every Monte Carlo draw comes from a
counter-based Philox stream keyed by ``(master_seed, stream_index)``, so
distinct streams never share state and results do not depend on scheduling.
``replication_map`` runs one stream per replication, on forked workers.
"""

from __future__ import annotations

import io
import os
import pickle
import signal
import zlib
from collections.abc import Callable
from dataclasses import dataclass
from itertools import islice
from typing import NamedTuple

import numpy as np
from numpy.random import Generator, Philox

from .rand_models import _index

__all__ = [
    "SeedSpec",
    "ReplicationError",
    "replication_map",
]


@dataclass(frozen=True)
class SeedSpec:
    """Philox stream key: (master_seed, stream_index) -> generator state.

    The pair is the raw 128-bit Philox key, so distinct stream indices map
    to distinct states exactly, not merely with high probability.
    """

    master_seed: int
    stream_index: int = 0

    def __post_init__(self):
        for name in ("master_seed", "stream_index"):
            value = _index(getattr(self, name), name)
            if not 0 <= value < 2**64:
                raise ValueError(f"{name} must fit in 64 unsigned bits")
            object.__setattr__(self, name, value)

    def generator(self) -> Generator:
        return next(_streams(self.master_seed, (self.stream_index,)))


def _streams(master_seed: int, stream_indices):
    """Yield one Generator, re-keyed in place to each (master_seed, index).

    Philox is counter-based, so setting the full state (key, counter 0,
    empty 64- and 32-bit buffers) starts exactly the stream a fresh
    ``Philox(key=...)`` would, without paying for a new bit generator.
    The state holds plain Python ints: the setter reads it element by
    element, and indexing a numpy array there makes a numpy scalar each
    time, which more than doubles the cost of a re-key.
    Each yielded value is the same object: it is valid until the next one.
    """
    key = [master_seed, 0]
    state = {
        "bit_generator": "Philox",
        "state": {"counter": [0, 0, 0, 0], "key": key},
        "buffer": [0, 0, 0, 0],
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    bitgen = Philox(key=np.array(key, dtype=np.uint64))
    rng = Generator(bitgen)
    for index in stream_indices:
        key[1] = index
        bitgen.state = state
        yield rng


def _stream_base(tag: str) -> int:
    return zlib.crc32(tag.encode("utf-8")) << 32


def _usable_cpus() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


_BLOCK = 1 << 10  # replications stacked at a time, and so at most one fold call's rows


class ReplicationError(RuntimeError):
    """A forked replication worker failed in a way that cannot be re-raised as itself."""


class _Job(NamedTuple):
    """One replication_map call's work: fn on streams start..start+reps-1 of tag."""

    fn: Callable
    reps: int
    tag: str
    start: int = 0
    fold: Callable | None = None


def replication_map(fn, reps: int, master_seed: int, tag: str,
                    workers: int = 1, start: int = 0, fold=None) -> np.ndarray:
    """Evaluate fn(rng) on per-replication streams start..start+reps-1.

    Replication i draws from the stream ``SeedSpec(master_seed,
    crc32(tag) * 2^32 + i)``.  Results are stacked in replication order
    whatever the worker count, so the bytes are identical for any count and
    splitting a range across runs and concatenating reproduces the single
    run exactly.

    Each span runs its replications in blocks of at most ``_BLOCK`` (2^10)
    and stacks each block's results.  With a ``fold``, a span keeps
    ``fold(block)`` in place of the block: one vectorized call per block
    instead of per-replication Python work, with memory bounded by a block
    rather than the span.  ``fold`` must return one entry per row (else
    ValueError) and treat each row alone, so the result equals
    ``fold(replication_map(fn, ...))`` bit for bit, for any worker count
    and any split of the range.

    The range is cut into as many contiguous spans as the smallest of
    ``workers``, ``reps`` and the CPUs this process may use.  Where
    ``os.fork`` exists, every span after the first runs in a forked child,
    which inherits fn and fold (closures included) and pipes back its
    stacked results; elsewhere the whole range is one span.  An exception
    raised by fn or fold in a child is re-raised here, or reported as a
    ``ReplicationError`` naming its type and message when it cannot cross
    the pipe.  The generator passed to fn is re-keyed for the next
    replication, so fn must not keep it.

    This is the one-job case of ``_replications``, through which a figure
    run hands all its laws, k values or sizes to one set of worker
    processes, forked once per run.
    """
    (result,) = _replications([_Job(fn, reps, tag, start, fold)], master_seed, workers)
    return result


def _checked(job: _Job) -> _Job:
    """job with integer counts, or ValueError if its streams do not fit in 64 bits."""
    reps, start = _index(job.reps, "reps", 1), _index(job.start, "start", 0)
    first = _stream_base(job.tag) + start
    if first + reps > 2**64:
        raise ValueError(f"streams {first}..{first + reps - 1} of tag {job.tag!r} "
                         "do not fit in 64 unsigned bits")
    return job._replace(reps=reps, start=start)


def _replications(jobs, master_seed: int, workers: int):
    """A generator of each job's results, as ``replication_map`` stacks them, in job order.

    Every job and ``workers`` are checked by this call, before any
    replication runs or any process forks.  The jobs share one
    set of spans, as many as the smallest of ``workers``, the largest job's
    ``reps`` and the CPUs this process may use, and one without ``os.fork``;
    span s of a job is the s-th of its contiguous cuts, which is empty when
    the job has fewer replications than spans.  The spans after the first
    are forked once, before the first job: each child runs its span of
    every job in job order and pipes each part back as soon as it is
    stacked.  The parent runs the first span of a job and reads the job's
    parts before it yields it, and starts on the next job only when asked
    for it, so the parent holds one job's results at a time.  When the
    generator ends or is closed the children are reaped; unless every job
    was read (an error unwinds, or the caller stopped early) they are
    killed first.
    """
    jobs = [_checked(job) for job in jobs]
    workers = _index(workers, "workers", 1)
    master_seed = SeedSpec(master_seed).master_seed  # a plain int in 0..2**64-1
    longest = max((job.reps for job in jobs), default=1)
    spans = min(workers, longest, _usable_cpus()) if hasattr(os, "fork") else 1
    return _results(jobs, master_seed, spans)


def _results(jobs, master_seed: int, spans: int):
    """The generator ``_replications`` returns, for checked jobs over ``spans`` spans."""
    # exact for a huge start; cut[s]..cut[s+1] is span s of the job
    cuts = [[job.start + job.reps * s // spans for s in range(spans + 1)] for job in jobs]

    def span_parts(s: int):
        for job, cut in zip(jobs, cuts):
            if cut[s] < cut[s + 1]:
                yield _run_span(job, master_seed, cut[s], cut[s + 1])

    def gathered(job: _Job, cut: list[int]) -> np.ndarray:
        parts = [_run_span(job, master_seed, cut[0], cut[1])] if cut[0] < cut[1] else []
        parts += [_read_part(src) for s, (_, src) in enumerate(children, 1)
                  if cut[s] < cut[s + 1]]
        return np.concatenate(parts)

    children, finished = [], False
    try:
        for s in range(1, spans):
            children.append(_fork_parts(span_parts(s)))
        for j, (job, cut) in enumerate(zip(jobs, cuts)):
            result = gathered(job, cut)
            finished = j == len(jobs) - 1
            yield result
    finally:
        for pid, src in children:
            if not finished:  # unwinding: the other spans' results are not wanted
                os.kill(pid, signal.SIGKILL)
            src.close()
            os.waitpid(pid, 0)


def _run_span(job: _Job, master_seed: int, lo: int, hi: int) -> np.ndarray:
    """job's results for streams lo..hi-1 of its tag, stacked (or folded) by block."""
    fn, fold = job.fn, job.fold
    base = _stream_base(job.tag)
    rngs = _streams(master_seed, range(base + lo, base + hi))
    parts = []
    for _ in range(lo, hi, _BLOCK):  # the last block takes what is left
        block = np.asarray([fn(rng) for rng in islice(rngs, _BLOCK)])
        parts.append(block if fold is None else _folded(fold, block))
    return np.concatenate(parts)


def _folded(fold, block: np.ndarray) -> np.ndarray:
    """fold(block) as an array with one entry per row of block."""
    out = np.asarray(fold(block))
    if out.shape[:1] != block.shape[:1]:
        raise ValueError(f"fold returned shape {out.shape} for a block of {len(block)} rows")
    return out


def _fork_parts(parts) -> tuple[int, io.BufferedReader]:
    """Fork a child that pipes back each array of the iterable ``parts``;
    return its pid and the read end of its pipe.

    The child pickles ``(True, part)`` for each part as soon as it is made,
    and stops at the first exception with ``(False, (the exception pickled,
    or None if it cannot be, "Type: message"))``.  It leaves by
    ``os._exit``, so it never runs the parent's cleanup code or flushes the
    parent's stdio buffers.
    """
    rfd, wfd = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(rfd)
        os.close(wfd)
        raise
    if pid:
        os.close(wfd)
        return pid, open(rfd, "rb")
    status = 1
    try:
        os.close(rfd)
        with open(wfd, "wb") as out:
            try:
                for part in parts:
                    # pickled whole first, so a part that cannot be pickled writes nothing
                    out.write(pickle.dumps((True, part), protocol=pickle.HIGHEST_PROTOCOL))
                    out.flush()
            except Exception as exc:
                try:
                    blob = pickle.dumps(exc, protocol=pickle.HIGHEST_PROTOCOL)
                except Exception:
                    blob = None
                out.write(pickle.dumps((False, (blob, f"{type(exc).__name__}: {exc}"))))
        status = 0
    finally:
        os._exit(status)


def _read_part(src) -> np.ndarray:
    """The next part a forked span wrote to its pipe; re-raise its exception."""
    try:
        ok, value = pickle.load(src)
    except (EOFError, pickle.UnpicklingError):
        raise ReplicationError("a replication worker process exited without a result") from None
    if ok:
        return value
    blob, text = value
    try:
        exc = pickle.loads(blob)
    except Exception:  # not picklable in the child (blob is None), or not rebuildable here
        raise ReplicationError(f"a replication worker process raised {text}") from None
    raise exc
