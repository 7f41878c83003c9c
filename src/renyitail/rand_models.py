"""Probability laws used across the package.

Two families live here: spacing laws with mean ``gamma`` (exponential,
uniform on (0, 2*gamma), Bernoulli, gamma with shape r and rate r/gamma)
and iid comparison laws for sorted heavy-tailed samples (strict Pareto and
the Hall-class perturbed Pareto, the latter defined only through its
quantile function).

Sampling is reproducible: every draw comes from a counter-based Philox
stream keyed by ``(master_seed, stream_index)``, so distinct stream
indices never share state and results are independent of scheduling.
``replication_map`` runs one such stream per Monte Carlo replication.
"""

from __future__ import annotations

import io
import math
import operator
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

__all__ = [
    "DistributionSpec",
    "SeedSpec",
    "ReplicationError",
    "replication_map",
    "exponential",
    "uniform",
    "bernoulli",
    "gamma_law",
    "strict_pareto",
    "hall_class",
    "parse_spec",
    "draw",
    "quantile",
    "moment",
    "mgf",
    "cf",
    "support",
]

SPACING_KINDS = ("exp", "unif", "bern", "gamma")
# the parameters each law takes, in the order its canonical text names them
_PARAMS = {"exp": ("gamma",), "unif": ("gamma",), "bern": ("gamma",),
           "gamma": ("r", "gamma"), "pareto": ("gamma", "c"), "hall": ()}

_HALL_GAMMA = 0.5  # tail index 1/2 is built into Q(1-u) = u^{-1/2}(1 + u/2)
_HALL_MEAN = 7.0 / 3.0


@dataclass(frozen=True)
class DistributionSpec:
    """Tagged description of a law: ``kind`` plus its parameters.

    ``gamma`` is the mean for spacing laws and the tail parameter for the
    Pareto-type comparison laws; ``r`` is the gamma-law shape; ``c`` the
    Pareto scale.
    """

    kind: str
    gamma: float | None = None
    r: float | None = None
    c: float | None = None

    def __post_init__(self):
        params = _PARAMS.get(self.kind)
        if params is None:
            raise ValueError(f"unknown distribution kind {self.kind!r}")
        for name in ("gamma", "r", "c"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ValueError(f"{self.kind}: {name} must be finite")
        for name in ("gamma", "r", "c"):
            value = getattr(self, name)
            if name in params:
                if value is None or not value > 0:
                    raise ValueError(f"{self.kind}: {name} must be positive")
            elif value is not None and (self.kind, name, value) != ("hall", "gamma", _HALL_GAMMA):
                # hall's gamma is fixed: restating it is allowed, any other value is not
                raise ValueError(f"{self.kind}: unexpected parameter {name}")
        if self.kind == "hall":
            object.__setattr__(self, "gamma", _HALL_GAMMA)
        if self.kind == "bern" and not self.gamma <= 1:
            raise ValueError("bern: gamma must lie in (0, 1]")

    @property
    def is_spacing_law(self) -> bool:
        return self.kind in SPACING_KINDS

    @property
    def mean(self) -> float:
        return moment(self, 1)

    @property
    def variance(self) -> float:
        mu1 = moment(self, 1)
        mu2 = moment(self, 2)
        if math.isinf(mu2):
            return math.inf
        return mu2 - mu1 * mu1

    def canonical(self) -> str:
        """Canonical text form, e.g. ``exp:gamma=0.5``; parse() round-trips it."""
        params = ",".join(f"{name}={getattr(self, name)!r}" for name in _PARAMS[self.kind])
        return f"{self.kind}:{params}" if params else self.kind

    def __str__(self) -> str:
        return self.canonical()


def exponential(gamma: float) -> DistributionSpec:
    return DistributionSpec("exp", gamma=gamma)


def uniform(gamma: float) -> DistributionSpec:
    """Uniform on (0, 2*gamma), so the mean is gamma."""
    return DistributionSpec("unif", gamma=gamma)


def bernoulli(gamma: float) -> DistributionSpec:
    return DistributionSpec("bern", gamma=gamma)


def gamma_law(r: float, gamma: float) -> DistributionSpec:
    """Gamma with shape r and rate r/gamma, so the mean is gamma."""
    return DistributionSpec("gamma", gamma=gamma, r=r)


def strict_pareto(gamma: float, c: float = 1.0) -> DistributionSpec:
    """Strict Pareto: P(X > x) = (c/x)^(1/gamma) for x >= c."""
    return DistributionSpec("pareto", gamma=gamma, c=c)


def hall_class() -> DistributionSpec:
    """Perturbed Pareto with quantile Q(1-u) = u^(-1/2) (1 + u/2)."""
    return DistributionSpec("hall")


def parse_spec(text: str) -> DistributionSpec:
    """Parse the canonical text form (case-insensitive, unknown keys rejected)."""
    body = text.strip().lower()
    if not body:
        raise ValueError("empty distribution spec")
    kind, _, params = body.partition(":")
    kwargs: dict[str, float] = {}
    if params:
        for item in params.split(","):
            key, sep, value = item.partition("=")
            key = key.strip()
            if not sep or key not in ("gamma", "r", "c"):
                raise ValueError(f"bad parameter {item!r} in spec {text!r}")
            if key in kwargs:
                raise ValueError(f"duplicate parameter {key!r} in spec {text!r}")
            try:
                kwargs[key] = float(value)
            except ValueError:
                raise ValueError(f"bad numeric value in {item!r}") from None
    return DistributionSpec(kind, **kwargs)


def _index(value, name: str) -> int:
    """value as an int, or ValueError if it is not one (int() would truncate 7.5 to 7)."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer") from None


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
    stacked results; elsewhere the spans run serially.  An exception raised
    by fn or fold in a child is re-raised here, or reported as a
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
    reps, start = _index(job.reps, "reps"), _index(job.start, "start")
    if reps < 1:
        raise ValueError("reps must be positive")
    first = _stream_base(job.tag) + start
    if first < 0 or first + reps > 2**64:
        raise ValueError(f"streams {first}..{first + reps - 1} of tag {job.tag!r} "
                         "do not fit in 64 unsigned bits")
    return job._replace(reps=reps, start=start)


def _replications(jobs, master_seed: int, workers: int):
    """Yield each job's results, as ``replication_map`` stacks them, in job order.

    Every job is checked before any replication runs.  The jobs share one
    set of spans, as many as the smallest of ``workers``, the largest job's
    ``reps`` and the CPUs this process may use; span s of a job is the s-th
    of its contiguous cuts, which is empty when the job has fewer
    replications than spans.  Where ``os.fork`` exists the spans after the
    first are forked once, before the first job: each child runs its span
    of every job in job order and pipes each part back as soon as it is
    stacked.  The parent runs the first span of a job and reads the job's
    parts before it yields it, and starts on the next job only when asked
    for it, so the parent holds one job's results at a time.  When the
    generator ends or is closed the children are reaped; unless every job
    was read (an error unwinds, or the caller stopped early) they are
    killed first.
    """
    jobs = [_checked(job) for job in jobs]
    workers = _index(workers, "workers")
    master_seed = SeedSpec(master_seed).master_seed  # a plain int in 0..2**64-1
    longest = max((job.reps for job in jobs), default=1)
    spans = min(workers, longest, _usable_cpus()) if hasattr(os, "fork") else 1
    if spans <= 1:
        for job in jobs:
            yield _run_span(job, master_seed, job.start, job.start + job.reps)
        return
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


def draw(spec: DistributionSpec, rng: Generator, count: int) -> np.ndarray:
    """Draw ``count`` iid values from an already-open stream."""
    if count <= 0:
        raise ValueError("count must be positive")
    g = spec.gamma
    if spec.kind == "exp":
        return rng.exponential(scale=g, size=count)
    if spec.kind == "unif":
        return rng.random(count) * (2.0 * g)
    if spec.kind == "bern":
        return (rng.random(count) < g).astype(np.float64)
    if spec.kind == "gamma":
        return rng.standard_gamma(spec.r, size=count) * (g / spec.r)
    # Pareto-type laws sample by inverse transform; 1 - random() lies in (0, 1].
    u = 1.0 - rng.random(count)
    if spec.kind == "pareto":
        return spec.c * u ** (-g)
    return u ** (-0.5) * (1.0 + 0.5 * u)  # hall


def quantile(spec: DistributionSpec, u):
    """Left-continuous generalized inverse of the CDF at u in (0, 1).

    Accepts a scalar or an array; the Bernoulli case is the 0/1 step.
    """
    arr = np.asarray(u, dtype=np.float64)
    if not np.all((arr > 0.0) & (arr < 1.0)):  # NaN fails both comparisons
        raise ValueError("quantile argument must lie in (0, 1)")
    g = spec.gamma
    if spec.kind == "exp":
        out = -g * np.log1p(-arr)
    elif spec.kind == "unif":
        out = 2.0 * g * arr
    elif spec.kind == "bern":
        out = np.where(arr <= 1.0 - g, 0.0, 1.0)
    elif spec.kind == "gamma":
        from scipy.special import gammaincinv  # imported here: scipy.special doubles start-up

        out = gammaincinv(spec.r, arr) * (g / spec.r)
    elif spec.kind == "pareto":
        out = spec.c * (1.0 - arr) ** (-g)
    else:  # hall
        v = 1.0 - arr
        out = v ** (-0.5) * (1.0 + 0.5 * v)
    return float(out) if np.isscalar(u) else out


def moment(spec: DistributionSpec, k: int) -> float:
    """Exact k-th raw moment; returns math.inf when the moment diverges."""
    if k < 1 or k != int(k):
        raise ValueError("moment order must be a positive integer")
    k = int(k)
    g = spec.gamma
    if spec.kind == "exp":
        return math.factorial(k) * g**k
    if spec.kind == "unif":
        return (2.0 * g) ** k / (k + 1)
    if spec.kind == "bern":
        return g
    if spec.kind == "gamma":
        r = spec.r
        # prod_{i=0}^{k-1} (r + i) / (r/g) each step
        out = 1.0
        for i in range(k):
            out *= (r + i) * (g / r)
        return out
    if spec.kind == "pareto":
        if k * g >= 1.0:
            return math.inf
        return spec.c**k / (1.0 - k * g)
    # hall: E X = int_0^1 u^{-1/2} (1 + u/2) du = 2 + 1/3; higher moments diverge
    return _HALL_MEAN if k == 1 else math.inf


_LOG_DBL_MAX = math.log(np.finfo(float).max)


def mgf(spec: DistributionSpec, t: float) -> float:
    """Moment generating function M(t); math.inf where M diverges, ValueError at NaN."""
    if math.isnan(t):
        raise ValueError("t must not be NaN")
    g = spec.gamma
    if spec.kind == "exp":
        return 1.0 / (1.0 - g * t) if t < 1.0 / g else math.inf
    if spec.kind == "unif":
        a = 2.0 * g * t
        if a > _LOG_DBL_MAX:  # expm1(a) overflows
            return math.inf
        return float(np.expm1(a) / a) if a != 0.0 else 1.0
    if spec.kind == "bern":
        if t > 709.0:  # exp overflow: M is finite but not representable
            return math.inf
        return 1.0 - g + g * math.exp(t)
    if spec.kind == "gamma":
        r = spec.r
        return (1.0 - g * t / r) ** (-r) if t < r / g else math.inf
    if t > 0.0:
        return math.inf  # pareto/hall have no exponential moments
    if t == 0.0:
        return 1.0
    raise NotImplementedError(f"mgf of {spec.kind!r} has no closed form for t < 0")


def cf(spec: DistributionSpec, t):
    """E exp(itZ) for the four spacing laws, t a scalar or an array without NaN;
    uniform as e^{ia/2} sinc(a/2) with a = 2 gamma t, which does not cancel near a = 0."""
    arr = np.asarray(t, dtype=np.float64)
    if np.isnan(arr).any():
        raise ValueError("t must not be NaN")
    g = spec.gamma
    if spec.kind == "exp":
        out = 1.0 / (1.0 - 1j * g * arr)
    elif spec.kind == "unif":
        a = 2.0 * g * arr
        out = np.exp(0.5j * a) * np.sinc(a / (2.0 * np.pi))
    elif spec.kind == "bern":
        out = (1.0 - g) + g * np.exp(1j * arr)
    elif spec.kind == "gamma":
        out = (1.0 - 1j * g * arr / spec.r) ** (-spec.r)
    else:
        raise NotImplementedError(f"characteristic function of {spec.kind!r} not implemented")
    return complex(out) if np.isscalar(t) else out


def support(spec: DistributionSpec) -> tuple[float, float]:
    """Closed convex hull of the support."""
    g = spec.gamma
    if spec.kind in ("exp", "gamma"):
        return (0.0, math.inf)
    if spec.kind == "unif":
        return (0.0, 2.0 * g)
    if spec.kind == "bern":
        return (0.0, 1.0)
    if spec.kind == "pareto":
        return (spec.c, math.inf)
    return (1.5, math.inf)  # hall: Q at u -> 1

