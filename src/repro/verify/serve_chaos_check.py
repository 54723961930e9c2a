"""Serving-under-fire conformance: the engine's fault-recovery and
degradation guarantees, checked against injected chaos.

Five checks, one guarantee each:

- **crash-recovery-grid** — decode-step crashes
  (:class:`~repro.resilience.serve_chaos.DecodeCrash`) across a grid of
  plans: every request still completes, every completed stream equals
  its per-request oracle (faults fire before the sampling rng is
  consumed, so recompute-restart replays the exact stream), the cache
  ends with zero live blocks, and per-tick token counts equal the sum
  over terminal requests (token conservation).
- **corruption-checksum** — KV-block corruption against a checksummed
  :class:`~repro.serve.kv_cache.PagedKVCache`: the corruption must be
  *detected* (the victim retries; garbage never feeds a forward pass)
  and the retried streams still equal their oracles.
- **exhaustion-overload** — an allocator-exhaustion storm over an
  overloaded trace with a bounded queue, deadlines and queue TTLs: the
  run terminates (no livelock), the never-admitted queue never exceeds
  ``max_queue``, shedding and expiry produce typed ``rejected`` /
  ``timeout`` outcomes, and token conservation spans those outcomes
  (timed-out partials count, rejected contribute zero).
- **deadline-typing** — deadline semantics at the edge: a deadline
  equal to the arrival step still gets the arrival tick (one-token
  requests complete; longer ones time out with their partial counted).
- **faulted-replay** — a combined crash+corruption+storm run replays
  bit-exactly: token streams, per-request metrics, and the run-log
  event sequence on the virtual clock (faults included).
"""

from __future__ import annotations

import numpy as np

from repro.config import tiny_test_model
from repro.nn.transformer import GPTModel
from repro.resilience.serve_chaos import (
    AllocExhaustion,
    DecodeCrash,
    KVCorruption,
    ServeChaosPlan,
)

from .differential import replay_failures, run_engine, stream_failures


def _invariants(label, engine, report, events, trace) -> list[str]:
    """The guarantees every faulted run must keep, whatever the plan."""
    from repro.serve import validate_serve_metrics

    failures = []
    if engine.cache.live_blocks != 0:
        failures.append(
            f"{label}: cache leaked {engine.cache.live_blocks} live "
            f"blocks after the run"
        )
    violations = validate_serve_metrics(report.to_dict())
    for v in violations:
        failures.append(f"{label}: metrics schema violation: {v}")
    ticked = sum(e.get("tokens", 0) for e in events
                 if e["type"] == "iteration")
    settled = sum(r.generated_tokens for r in report.requests)
    if ticked != settled:
        failures.append(
            f"{label}: token conservation broken -- {ticked} tokens "
            f"ticked vs {settled} settled across all terminal outcomes"
        )
    if len(report.requests) != len(trace):
        failures.append(
            f"{label}: {len(report.requests)} terminal requests for a "
            f"{len(trace)}-request trace (requests lost or duplicated)"
        )
    completed = {r.request_id for r in report.requests
                 if r.outcome == "completed"}
    failures += [
        f"{label}: {f}" for f in
        stream_failures(engine.model, trace, engine.outputs,
                        completed=completed)
    ]
    return failures


def _check_crash_grid(fast: bool, seed: int) -> list[str]:
    from repro.serve import poisson_trace

    config = tiny_test_model()
    model = GPTModel(config, seed=seed)
    trace = poisson_trace(
        5 if fast else 8, 0.8, vocab_size=config.vocab_size, seed=seed + 11,
        temperature=1.0, top_k=5,
    )
    plans = [
        ServeChaosPlan(crashes=(DecodeCrash(at_step=0),)),
        ServeChaosPlan(crashes=(
            DecodeCrash(at_step=1, times=2),
            DecodeCrash(at_step=6),
        )),
    ]
    if not fast:
        plans.append(ServeChaosPlan(crashes=(
            DecodeCrash(at_step=0, request_id=trace[0].request_id, times=3),
        )))
    failures = []
    for i, plan in enumerate(plans):
        label = f"crash-plan[{i}]"
        engine, report, events = run_engine(
            model, trace, num_blocks=6, block_size=3, chaos=plan,
        )
        failures += _invariants(label, engine, report, events, trace)
        agg = report.to_dict()["aggregate"]
        if agg["retries"] == 0:
            failures.append(
                f"{label}: no retries recorded -- the crash never fired"
            )
        if agg["outcomes"]["completed"] != len(trace):
            failures.append(
                f"{label}: {agg['outcomes']} -- every request should "
                f"complete within the retry budget"
            )
    return failures


def _check_corruption(fast: bool, seed: int) -> list[str]:
    from repro.serve import poisson_trace

    config = tiny_test_model()
    model = GPTModel(config, seed=seed)
    trace = poisson_trace(
        4 if fast else 6, 0.6, vocab_size=config.vocab_size, seed=seed + 12,
        temperature=1.0, top_k=5,
    )
    plan = ServeChaosPlan(corruptions=(
        KVCorruption(at_step=2, times=1 if fast else 2),
    ))
    engine, report, events = run_engine(
        model, trace, num_blocks=8, block_size=3, checksums=True, chaos=plan,
    )
    failures = _invariants("corruption", engine, report, events, trace)
    agg = report.to_dict()["aggregate"]
    if agg["retries"] == 0:
        failures.append(
            "corruption: no retries -- the checksum never caught the "
            "corrupted block"
        )
    if agg["outcomes"]["completed"] != len(trace):
        failures.append(
            f"corruption: {agg['outcomes']} -- corruption recovery should "
            f"complete every request"
        )
    return failures


def _check_exhaustion_overload(fast: bool, seed: int) -> list[str]:
    from repro.serve import poisson_trace

    config = tiny_test_model()
    model = GPTModel(config, seed=seed)
    # Deliberate overload: ~3 arrivals per step into a 4-block pool,
    # with a storm seizing the whole pool mid-burst.
    trace = poisson_trace(
        8 if fast else 12, 3.0, vocab_size=config.vocab_size,
        seed=seed + 13, max_new=(3, 8), temperature=1.0, top_k=5,
        deadline_steps=12, queue_ttl=5,
    )
    plan = ServeChaosPlan(exhaustions=(
        AllocExhaustion(at_step=1, steps=8),
    ))
    failures = []
    for policy in ("reject-newest", "edf"):
        label = f"overload[{policy}]"
        engine, report, events = run_engine(
            model, trace, num_blocks=4, block_size=3, chaos=plan,
            max_queue=3, shed_policy=policy,
        )
        failures += _invariants(label, engine, report, events, trace)
        agg = report.to_dict()["aggregate"]
        if agg["outcomes"]["rejected"] == 0:
            failures.append(
                f"{label}: overload shed nothing -- the bounded queue "
                f"went unexercised"
            )
        if agg["outcomes"]["timeout"] == 0:
            failures.append(
                f"{label}: nothing timed out under a storm with "
                f"deadlines and TTLs set"
            )
        peak_queue = max(
            (e["queued"] for e in events if e["type"] == "iteration"),
            default=0,
        )
        if peak_queue > 3:
            failures.append(
                f"{label}: never-admitted queue reached {peak_queue} "
                f"> max_queue=3 -- admission control leaked"
            )
    return failures


def _check_deadline_typing(fast: bool, seed: int) -> list[str]:
    from repro.serve import TraceRequest

    config = tiny_test_model()
    model = GPTModel(config, seed=seed)
    rng = np.random.default_rng(seed + 14)
    prompt = tuple(int(t) for t in rng.integers(0, config.vocab_size, size=3))
    trace = [
        # Deadline equal to the arrival step: the request still gets the
        # arrival tick, so one token completes it...
        TraceRequest("edge-one", 0, prompt, 1, seed=1, deadline_steps=0),
        # ...while a longer decode times out next tick, partial counted.
        TraceRequest("edge-many", 0, prompt, 5, seed=2, deadline_steps=0),
        TraceRequest("roomy", 0, prompt, 4, seed=3, deadline_steps=50),
    ]
    engine, report, events = run_engine(model, trace, num_blocks=8,
                                        block_size=3)
    failures = _invariants("deadline-typing", engine, report, events, trace)
    by_id = {r.request_id: r for r in report.requests}
    if by_id["edge-one"].outcome != "completed":
        failures.append(
            f"deadline-typing: edge-one should complete on its arrival "
            f"tick, got {by_id['edge-one'].outcome}"
        )
    timed = by_id["edge-many"]
    if timed.outcome != "timeout":
        failures.append(
            f"deadline-typing: edge-many should time out, got "
            f"{timed.outcome}"
        )
    elif not 1 <= timed.generated_tokens < 5:
        failures.append(
            f"deadline-typing: edge-many generated "
            f"{timed.generated_tokens} tokens; expected a partial stream"
        )
    if by_id["roomy"].outcome != "completed":
        failures.append(
            f"deadline-typing: roomy deadline should not fire, got "
            f"{by_id['roomy'].outcome}"
        )
    return failures


def _check_faulted_replay(fast: bool, seed: int) -> list[str]:
    from repro.serve import poisson_trace

    config = tiny_test_model()
    model = GPTModel(config, seed=seed)
    trace = poisson_trace(
        5 if fast else 8, 0.9, vocab_size=config.vocab_size, seed=seed + 15,
        temperature=1.0, top_k=5, deadline_steps=60,
    )
    plan = ServeChaosPlan(
        crashes=(DecodeCrash(at_step=1, times=2),),
        corruptions=(KVCorruption(at_step=4),),
        exhaustions=(AllocExhaustion(at_step=7, steps=3),),
    )

    def once():
        return run_engine(model, trace, num_blocks=6, block_size=3,
                          checksums=True, chaos=plan, max_queue=6)

    first = once()
    failures = _invariants("faulted-replay", *first, trace)
    failures += [f"faulted-replay: {f}"
                 for f in replay_failures(first, once())]
    return failures


def run_serve_chaos_checks(
    fast: bool = False, seed: int = 0
) -> list[tuple[str, list[str]]]:
    """Every serving-resilience check; ``(name, failures)`` per check."""
    return [
        ("crash-recovery-grid", _check_crash_grid(fast, seed)),
        ("corruption-checksum", _check_corruption(fast, seed)),
        ("exhaustion-overload", _check_exhaustion_overload(fast, seed)),
        ("deadline-typing", _check_deadline_typing(fast, seed)),
        ("faulted-replay", _check_faulted_replay(fast, seed)),
    ]
