"""Single-threaded open-loop driver for ServeEngine, plus the statistics
every workload reports.

The driver submits each request between ticks once its due time (seconds
after the start) has passed, with ``arrival_step`` set to the engine's
clock, and ticks the engine while it has work.  It stamps the start and
end of every tick and records, per request, the tick end at which each
output token appeared, so latencies are wall times measured from when the
request was *due*, not from when the driver got round to submitting it:
a slow tick delays every request due during it, and that delay counts.
"""

from __future__ import annotations

import dataclasses
import math
import time
from dataclasses import dataclass, field


def median(values) -> float:
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        raise ValueError("median of no samples")
    mid = n // 2
    return ordered[mid] if n % 2 else (ordered[mid - 1] + ordered[mid]) / 2


def tail(values) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it, as
    ``(value, percentile)``: the eleventh-largest sample, which sits at
    percentile ``100·(n-10)/n``.  Below 21 samples that would not be
    above the median, so fewer give the maximum (percentile 100)."""
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        raise ValueError("tail of no samples")
    if n < 21:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def fastest_repeat_seconds(units) -> float:
    """Seconds for one pass over every distinct unit of work, each at
    its fastest repeat.

    ``units`` holds ``(key, seconds)`` per timed run; runs with the same
    key repeat identical work.  A neighbour on a shared host only ever
    adds time, and on a 2-core VM it slows whole stretches of a run by
    up to 40%, so the fastest repeat of each unit is the steadiest
    estimate of the program's own cost (``timeit``'s rule).
    """
    best: dict[object, float] = {}
    for key, seconds in units:
        best[key] = min(seconds, best.get(key, math.inf))
    if not best:
        raise ValueError("no units")
    return math.fsum(best.values())


@dataclass
class RequestRecord:
    """Wall-clock history of one request, seconds from the run start."""

    request_id: str
    due: float
    submitted: float
    token_times: list[float] = field(default_factory=list)
    outcome: str | None = None
    metrics: object = None  # the engine's RequestMetrics once terminal

    @property
    def ttft(self) -> float:
        return self.token_times[0] - self.due

    def gaps(self) -> list[float]:
        t = self.token_times
        return [b - a for a, b in zip(t, t[1:])]


@dataclass
class DriveResult:
    records: list[RequestRecord]
    tick_start: list[float]
    tick_end: list[float]
    first_step: int  # engine step of the first tick this run made

    @property
    def tick_seconds(self) -> list[float]:
        return [b - a for a, b in zip(self.tick_start, self.tick_end)]

    @property
    def busy_seconds(self) -> float:
        return math.fsum(self.tick_seconds)

    @property
    def makespan(self) -> float:
        return self.tick_end[-1] if self.tick_end else 0.0

    def lags(self) -> list[float]:
        return [r.submitted - r.due for r in self.records]

    def completed(self) -> list[RequestRecord]:
        return [r for r in self.records if r.outcome == "completed"]

    def tick_start_of(self, step: int) -> float:
        return self.tick_start[step - self.first_step]

    def tick_end_of(self, step: int) -> float:
        return self.tick_end[step - self.first_step]


def drive(engine, requests, due, *, clock=time.perf_counter,
          sleep=time.sleep) -> DriveResult:
    """Run ``requests`` (``TraceRequest``s) through ``engine`` open loop.

    ``due[i]`` is when request ``i`` is due, in seconds after the start;
    it must be non-decreasing.  Returns once every submitted request is
    terminal.  Outputs stay in the engine (``engine.outputs``,
    ``engine.finished``).
    """
    if any(b < a for a, b in zip(due, due[1:])):
        raise ValueError("due times must be non-decreasing")
    records: dict[str, RequestRecord] = {}
    live: dict[str, object] = {}  # request id -> its DecodeSession
    tick_start: list[float] = []
    tick_end: list[float] = []
    first_step = engine.step_count
    seen_finished = len(engine.finished)
    t0 = clock()
    i, n = 0, len(requests)
    while True:
        now = clock() - t0
        while i < n and due[i] <= now:
            req = dataclasses.replace(requests[i], arrival_step=engine.step_count)
            records[req.request_id] = RequestRecord(req.request_id, due[i], now)
            if engine.submit(req):
                live[req.request_id] = engine.waiting[-1].session
            i += 1
        # Requests the engine made terminal (including a rejection at
        # submit) leave the live set with their typed outcome.
        for metrics in engine.finished[seen_finished:]:
            rec = records[metrics.request_id]
            rec.outcome, rec.metrics = metrics.outcome, metrics
            live.pop(metrics.request_id, None)
        seen_finished = len(engine.finished)
        if not engine.waiting and not engine.running:
            if i >= n:
                break
            sleep(max(0.0, due[i] - (clock() - t0)))
            continue
        start = clock() - t0
        engine.tick()
        end = clock() - t0
        tick_start.append(start)
        tick_end.append(end)
        for rid, session in live.items():
            times = records[rid].token_times
            new = session.generated - len(times)
            if new > 0:
                times.extend([end] * new)
    return DriveResult(list(records.values()), tick_start, tick_end, first_step)
