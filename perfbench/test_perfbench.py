"""Tests of the benchmark's own machinery.

Run from the root of the repository:  python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import sys
import types
import zlib
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import driver  # noqa: E402
import run  # noqa: E402
import tracer as tracer_mod  # noqa: E402
import workloads  # noqa: E402
from repro.serve.traffic import TraceRequest  # noqa: E402


# -- open-loop driver ---------------------------------------------------------

class FakeClock:
    """Virtual seconds; ``sleep`` advances them, nothing else does."""

    def __init__(self):
        self.t = 0.0

    def __call__(self) -> float:
        return self.t

    def sleep(self, seconds: float) -> None:
        self.t += seconds


@dataclass
class FakeSession:
    budget: int
    generated: int = 0


@dataclass
class FakeEntry:
    trace: TraceRequest
    session: FakeSession


@dataclass
class FakeMetrics:
    request_id: str
    first_token_step: int
    outcome: str = "completed"


@dataclass
class FakeEngine:
    """Admits everything at the next tick; every tick takes ``tick_s``
    and gives each running request one token."""

    clock: FakeClock
    tick_s: float
    step_count: int = 0
    waiting: list = field(default_factory=list)
    running: list = field(default_factory=list)
    finished: list = field(default_factory=list)
    first: dict = field(default_factory=dict)

    def submit(self, req: TraceRequest) -> bool:
        self.waiting.append(FakeEntry(req, FakeSession(req.max_new_tokens)))
        return True

    def tick(self) -> int:
        self.running += self.waiting
        self.waiting = []
        self.clock.t += self.tick_s
        for entry in list(self.running):
            entry.session.generated += 1
            rid = entry.trace.request_id
            self.first.setdefault(rid, self.step_count)
            if entry.session.generated == entry.session.budget:
                self.running.remove(entry)
                self.finished.append(FakeMetrics(rid, self.first[rid]))
        self.step_count += 1
        return 1


def _req(rid: str, n: int) -> TraceRequest:
    return TraceRequest(rid, 0, (1, 2, 3), n)


def test_driver_times_from_due_with_exact_ttft_itl_and_lag():
    clock = FakeClock()
    engine = FakeEngine(clock, tick_s=0.25)
    reqs = [_req("a", 3), _req("b", 3), _req("c", 2)]
    res = driver.drive(engine, reqs, [0.0, 0.375, 3.0], clock=clock,
                       sleep=clock.sleep)
    a, b, c = res.records
    # a: submitted at once, tokens at the ends of ticks 0, 1, 2.
    assert a.submitted - a.due == 0.0
    assert a.token_times == [0.25, 0.5, 0.75]
    assert a.ttft == 0.25 and a.gaps() == [0.25, 0.25]
    # b: due mid-tick 1, submitted after it ends -> lag 0.125, and its
    # TTFT counts that wait.
    assert b.submitted - b.due == 0.125
    assert b.token_times == [0.75, 1.0, 1.25]
    assert b.ttft == 0.375 and b.gaps() == [0.25, 0.25]
    # c: the engine idles, the driver sleeps until c is due.
    assert c.submitted - c.due == 0.0
    assert c.ttft == 0.25 and c.gaps() == [0.25]
    assert res.lags() == [0.0, 0.125, 0.0]
    assert [r.outcome for r in res.records] == ["completed"] * 3
    assert res.tick_seconds == [0.25] * 7 and res.busy_seconds == 1.75
    for rec in res.records:  # engine steps map to tick end times
        assert res.tick_end_of(rec.metrics.first_token_step) == rec.token_times[0]


def test_driver_rejects_unsorted_due_times():
    with pytest.raises(ValueError):
        driver.drive(FakeEngine(FakeClock(), 0.25), [_req("a", 1)] * 2,
                     [1.0, 0.0])


def test_fastest_repeat_seconds_sums_each_units_fastest_run():
    units = [("a", 2.0), ("b", 4.0), ("a", 1.0), ("b", 6.0)]
    assert driver.fastest_repeat_seconds(units) == 5.0
    with pytest.raises(ValueError):
        driver.fastest_repeat_seconds([])


def test_tail_is_eleventh_largest():
    values = list(range(100))
    assert driver.tail(values) == (89, 90.0)
    assert driver.tail([3.0, 1.0]) == (3.0, 100.0)
    assert driver.tail(list(range(20))) == (19, 100.0)
    assert driver.tail(list(range(21))) == (10, 100.0 * 11 / 21)
    assert driver.median([4, 1, 3, 2]) == 2.5


def test_summarize_rounds_repeat_two_batches_with_seed_free_lengths():
    def shape(seed):
        rounds = list(workloads._rounds("serve-summarize", seed, 0.0))
        return rounds, [[(len(r.prompt), r.max_new_tokens) for r in reqs]
                        for _, reqs, _ in rounds]

    rounds, lengths = shape(1)
    other_rounds, other_lengths = shape(2)
    assert [key for key, _, _ in rounds] == [0, 1, 0, 1]
    assert lengths == other_lengths and lengths[0] == lengths[2] != lengths[1]
    assert rounds[0][1][0].prompt != other_rounds[0][1][0].prompt
    assert rounds[0][1][0].prompt == rounds[2][1][0].prompt
    ids = [r.request_id for _, reqs, _ in rounds for r in reqs]
    assert len(ids) == len(set(ids))


# -- tracer -------------------------------------------------------------------

def _counting_clock():
    ticks = iter(range(1, 10_000))
    return lambda: next(ticks)


def test_self_time_accounting_closes_exactly():
    ns = types.SimpleNamespace()
    ns.g = lambda x: x + 1
    ns.f = lambda x: ns.g(ns.g(x))
    tr = tracer_mod.Tracer(clock=_counting_clock())
    tr.wrap(ns, "g", "G")
    tr.wrap(ns, "f", "F")
    start = tr.clock()
    assert ns.f(1) == 3
    wall = tr.clock() - start
    tr.uninstall()
    # Clock reads: window 1-8, F 2-7, G 3-4 and 5-6.
    assert tr.self_ns == {"F": 3, "G": 2}
    assert tr.calls == {"F": 1, "G": 2}
    assert list(tr.span_parent) == [-1, 0, 0]
    remainder = wall - tr.total_self_ns()
    assert tr.total_self_ns() == tr.root_duration_ns() == tr.root_ns
    assert tr.total_self_ns() + remainder == wall and remainder == 2


def test_span_closes_when_the_call_raises():
    ns = types.SimpleNamespace(boom=lambda: 1 / 0)
    tr = tracer_mod.Tracer(clock=_counting_clock())
    tr.wrap(ns, "boom", "B")
    with pytest.raises(ZeroDivisionError):
        ns.boom()
    assert tr.calls == {"B": 1} and not tr._stack


def test_install_repro_restores_every_original_and_keeps_outputs():
    from repro.config import GPTConfig
    from repro.nn import GPTModel, functional
    from repro.parallel import pipeline_parallel
    from repro.serve import kv_cache

    gelu, send = functional.gelu_forward, pipeline_parallel.send
    model = GPTModel(GPTConfig(num_layers=2, hidden_size=16,
                               num_attention_heads=2, vocab_size=32,
                               seq_length=8), seed=0)
    ids = np.arange(6)[None, :]
    want, _ = model.forward_step(ids)

    tr = tracer_mod.Tracer()
    tracer_mod.install_repro(tr)
    installed = tr.installed
    assert functional.gelu_forward is not gelu
    got, _ = model.forward_step(ids)
    assert tr.calls["nn.forward_step"] == 1 and tr.calls["nn.gelu"] == 2
    assert tr.uninstall() == []

    np.testing.assert_array_equal(got, want)
    assert functional.gelu_forward is gelu
    assert pipeline_parallel.send is send
    assert kv_cache.zlib is zlib
    for owner, attr, original in installed:
        assert tracer_mod._binding(owner, attr) is original, attr


# -- metric catalogue ---------------------------------------------------------

def _declared():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    return (spec,
            {m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def test_printed_metrics_match_benchmark_json():
    spec, e2e, per_layer = _declared()
    out = workloads.Outcome(0, 0, {})
    printed = workloads.e2e(out, 1.0, 1.0, 1.0, 20)
    assert {k: unit for k, (_, unit) in printed.items()} == e2e
    assert workloads.per_layer_units() == per_layer
    names = [w["name"] for w in spec["workloads"]]
    # serve-chat stays runnable but is not benchmarked (see README.md).
    assert names == ["train-ptd", "train-dp-mp", "serve-summarize"]
    assert list(workloads.WORKLOADS) == list(run.WORKLOAD_NAMES)
    assert set(names) <= set(run.WORKLOAD_NAMES)
    assert spec["command"] == ["python3", "perfbench/run.py"]
