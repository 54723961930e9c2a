"""Structured span tracing, and the one active-observer stack.

Activating a :class:`Tracer` (``with trace() as tracer:``) makes every
instrumented site in the codebase — the schedule executor's per-op
forward/backward work, each collective in :mod:`repro.comm.primitives`,
the trainer's iteration phases, the discrete-event simulator's timed
ops — emit :class:`Span` records into it.
``benchmarks/bench_trace_overhead.py`` measures the cost with tracing
*on* (estimator and readings: README, "Overhead and speedup guards").

A span carries ``(rank, phase, name, start, end)`` plus attached
counters (``bytes``, ``flops``, ``stage``, ...).  Ranks are *virtual
device* ranks — one Chrome-trace track each; :data:`GLOBAL_RANK` marks
whole-cluster phases (gradient all-reduce, optimizer step) that do not
belong to a single device.

Two clock regimes coexist:

- **live spans** (``tracer.span(...)`` context manager) read the
  tracer's clock — wall time by default, or any injected callable such
  as a deterministic tick counter;
- **simulated spans** (``tracer.add_span(...)``) carry explicit
  start/end from a modelled timeline, e.g. the §2.2 list scheduler.

The active-observer stack
-------------------------
Every in-process observer — tracers, FLOP meters, run loggers and
collective sanitizers — is activated on one process-global list,
:data:`_ACTIVE`, of ``(role, observer)`` entries, innermost last.  The
role is the observer class the activation point names, never the
observed object's type, so a duck-typed stand-in (the chaos harness's
telemetry-fault proxy) activated by :func:`~repro.obs.runlog.run_logging`
is a run logger:

=================================================  ====================
activation point                                   role
=================================================  ====================
:func:`trace`                                      :class:`Tracer`
:func:`repro.nn.profiler.count_flops`              ``FlopMeter``
:func:`repro.obs.runlog.run_logging`               ``RunLogger``
``with CollectiveSanitizer():``                    ``CollectiveSanitizer``
=================================================  ====================

Activation is nestable and exception-safe; leaving it removes exactly
its own entry (by identity — two empty dataclass observers compare
equal).  The hooks read the list as follows:

- ``current_tracer()``, ``current_run_logger()`` and
  ``current_sanitizer()`` return the innermost observer of their role;
- :func:`span` and :func:`sample` go to the innermost *tracer* only, so
  a FLOP meter opened inside a trace does not take the trace's spans;
- :func:`~repro.nn.profiler.record_gemm_flops` feeds every active meter
  and tracer, :func:`record_transfer` every tracer (it is called from
  ``TrafficLog.add``), and
  :func:`~repro.verify.sanitizer.record_collective` every sanitizer.

A tracer attributes each transfer and GEMM to its innermost open span
*and* to its :class:`~repro.obs.metrics.MetricsRegistry`
(``comm.bytes.<kind>``, ``flops.<category>``), so span totals match the
TrafficLog / FlopMeter ground truth exactly.  With nothing active,
every hook is one truthiness check (or loop) on the empty list, so the
instrumented hot paths stay effectively free.
"""
from __future__ import annotations

import contextlib
import time
from dataclasses import dataclass, field
from typing import Callable, ContextManager, Iterator

from .metrics import MetricsRegistry

#: Track id for spans that describe the whole virtual cluster rather
#: than one device (iteration, gradient all-reduce, optimizer).
GLOBAL_RANK = -1


@dataclass(frozen=True)
class CounterSample:
    """One timestamped value of a named counter series on one rank.

    The time-series twin of a :class:`~repro.obs.metrics.Gauge`: gauges
    keep only the last value, samples keep ``(t, value)`` pairs so
    memory/throughput timelines can be rendered as Chrome-trace counter
    (``ph: "C"``) tracks next to the spans.
    """

    name: str
    rank: int
    t: float
    value: float


@dataclass
class Span:
    """One traced interval on one virtual rank's timeline."""

    name: str
    phase: str
    rank: int
    start: float
    end: float | None = None
    depth: int = 0
    index: int = 0  # creation order; stable tie-break for equal starts
    counters: dict[str, float] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return (self.end if self.end is not None else self.start) - self.start

    @property
    def closed(self) -> bool:
        return self.end is not None

    def add_counter(self, name: str, amount: float) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"[{self.phase}] {self.name} rank={self.rank} "
            f"t=({self.start:.6g}, {self.end if self.end is None else round(self.end, 6)})"
        )


class Tracer:
    """Collects spans and metrics for one traced window.

    Parameters
    ----------
    clock:
        Zero-argument callable returning the current time for live
        spans.  Defaults to :func:`time.perf_counter`.  Simulated spans
        bypass the clock via :meth:`add_span`.
    """

    def __init__(self, clock: Callable[[], float] | None = None):
        self.clock = clock if clock is not None else time.perf_counter
        self.spans: list[Span] = []
        self.samples: list[CounterSample] = []
        self.metrics = MetricsRegistry()
        self._stack: list[Span] = []
        self._epoch: float | None = None

    # -- live (clocked) spans ------------------------------------------------
    def begin(self, name: str, phase: str = "", rank: int = GLOBAL_RANK,
              **counters: float) -> Span:
        """Open a span at the current clock time (normalized so the
        first event of the trace is t=0)."""
        now = self.clock()
        if self._epoch is None:
            self._epoch = now
        span = Span(
            name=name,
            phase=phase,
            rank=rank,
            start=now - self._epoch,
            depth=len(self._stack),
            index=len(self.spans),
            counters=dict(counters),
        )
        self.spans.append(span)
        self._stack.append(span)
        return span

    def end(self, span: Span) -> Span:
        """Close ``span``; it must be the innermost open span (strict
        nesting — the invariant the Chrome-trace format requires)."""
        if not self._stack or self._stack[-1] is not span:
            raise RuntimeError(
                f"span {span.name!r} is not the innermost open span; "
                "spans must close in LIFO order"
            )
        self._stack.pop()
        assert self._epoch is not None
        span.end = self.clock() - self._epoch
        return span

    @contextlib.contextmanager
    def span(self, name: str, phase: str = "", rank: int = GLOBAL_RANK,
             **counters: float) -> Iterator[Span]:
        """Context manager opening a nested live span (exception-safe)."""
        s = self.begin(name, phase, rank, **counters)
        try:
            yield s
        finally:
            self.end(s)

    # -- simulated (explicitly timed) spans ---------------------------------
    def add_span(self, name: str, phase: str, rank: int, start: float,
                 end: float, **counters: float) -> Span:
        """Record a complete span with explicit simulated-clock times."""
        if end < start:
            raise ValueError(f"span {name!r}: end {end} < start {start}")
        span = Span(
            name=name,
            phase=phase,
            rank=rank,
            start=start,
            end=end,
            depth=len(self._stack),
            index=len(self.spans),
            counters=dict(counters),
        )
        self.spans.append(span)
        return span

    # -- counter time series -------------------------------------------------
    def sample(self, name: str, value: float, rank: int = GLOBAL_RANK,
               t: float | None = None) -> CounterSample:
        """Record one point of a counter time series.

        ``t`` follows the two clock regimes of spans: omitted, it reads
        the tracer's clock (live, epoch-normalized like :meth:`begin`);
        explicit, it is a simulated-timeline timestamp.  The last value
        per series is mirrored into the metrics registry as a gauge so
        point-in-time queries don't have to scan the series.
        """
        if t is None:
            now = self.clock()
            if self._epoch is None:
                self._epoch = now
            t = now - self._epoch
        s = CounterSample(name=name, rank=rank, t=t, value=float(value))
        self.samples.append(s)
        self.metrics.gauge(name).set(value)
        return s

    def series(self, name: str, rank: int | None = None) -> list[CounterSample]:
        """All samples of one series, time-ordered as recorded."""
        return [
            s for s in self.samples
            if s.name == name and (rank is None or s.rank == rank)
        ]

    # -- attribution hooks ---------------------------------------------------
    @property
    def current(self) -> Span | None:
        """Innermost open live span, if any."""
        return self._stack[-1] if self._stack else None

    def on_transfer(self, nbytes: int, kind: str) -> None:
        """Attribute one logged transfer (from :func:`record_transfer`)."""
        self.metrics.counter(f"comm.bytes.{kind}").inc(nbytes)
        self.metrics.counter("comm.bytes.total").inc(nbytes)
        self.metrics.counter("comm.transfers").inc()
        if self._stack:
            self._stack[-1].add_counter("bytes", nbytes)

    def on_flops(self, category: str, flops: int) -> None:
        """Attribute GEMM work (called by ``record_gemm_flops``)."""
        self.metrics.counter(f"flops.{category}").inc(flops)
        self.metrics.counter("flops.total").inc(flops)
        if self._stack:
            self._stack[-1].add_counter("flops", flops)

    # -- queries -------------------------------------------------------------
    def spans_by_phase(self, phase: str) -> list[Span]:
        return [s for s in self.spans if s.phase == phase]

    def counter_total(self, counter: str, phase: str | None = None) -> float:
        """Sum a span counter over (optionally phase-filtered) spans.

        Each transfer/FLOP lands on exactly one span, so the unfiltered
        total equals the corresponding log's ground truth.
        """
        return sum(
            s.counters.get(counter, 0)
            for s in self.spans
            if phase is None or s.phase == phase
        )

    @property
    def open_spans(self) -> int:
        return len(self._stack)

    def __len__(self) -> int:
        return len(self.spans)


# -- the active-observer stack (contract: module docstring) ------------------

_ACTIVE: list[tuple[type, object]] = []


def deactivate(role: type, observer: object) -> None:
    """Remove the innermost ``(role, observer)`` entry, by identity."""
    for i in range(len(_ACTIVE) - 1, -1, -1):
        r, o = _ACTIVE[i]
        if o is observer and r is role:
            del _ACTIVE[i]
            return


@contextlib.contextmanager
def activate(role: type, observer):
    """Push ``observer`` under ``role`` for the block (nestable,
    exception-safe)."""
    _ACTIVE.append((role, observer))
    try:
        yield observer
    finally:
        deactivate(role, observer)


def innermost(role: type):
    """Innermost active observer of ``role``, or None."""
    for entry in reversed(_ACTIVE):
        if entry[0] is role:
            return entry[1]
    return None


def current_tracer() -> Tracer | None:
    """Innermost active tracer (None when tracing is off)."""
    return innermost(Tracer) if _ACTIVE else None


def tracing_active() -> bool:
    return current_tracer() is not None


def record_transfer(nbytes: int, kind: str) -> None:
    """Report one transfer to every active tracer (no-op when none).

    Called from ``TrafficLog.add``, so *every* byte the comm substrate
    accounts for is also attributed to the trace.
    """
    for role, observer in _ACTIVE:
        if role is Tracer:
            observer.on_transfer(nbytes, kind)


def sample(name: str, value: float, rank: int = GLOBAL_RANK,
           t: float | None = None) -> None:
    """Record a counter sample on the current tracer (no-op when
    tracing is off — the same null path as :func:`span`)."""
    tracer = innermost(Tracer) if _ACTIVE else None
    if tracer is not None:
        tracer.sample(name, value, rank=rank, t=t)


@contextlib.contextmanager
def span(name: str, phase: str = "", rank: int = GLOBAL_RANK,
         **counters: float) -> Iterator[Span | None]:
    """Open a span on the current tracer, or do nothing if tracing is
    off.  The null path is a single truthiness check — instrumentation
    sites can use this unconditionally."""
    tracer = innermost(Tracer) if _ACTIVE else None
    if tracer is None:
        yield None
        return
    with tracer.span(name, phase, rank, **counters) as s:
        yield s


def trace(clock: Callable[[], float] | None = None) -> ContextManager[Tracer]:
    """Activate a fresh :class:`Tracer` (nestable, exception-safe)."""
    return activate(Tracer, Tracer(clock=clock))
