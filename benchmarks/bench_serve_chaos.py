"""Serving-under-fire performance contracts (ISSUE 10).

Robustness must be (near) free when nothing goes wrong, and bounded
when everything does:

- **fault-free bookkeeping overhead** — an engine with the full
  degradation kit armed (per-request deadlines + queue TTLs + a bounded
  queue + per-block cache checksums) but no chaos must cost less than
  5% of the plain engine's wall time on the same trace: deadline/TTL
  checks are O(live SLO requests) per tick and the CRC32 touches only
  blocks an append wrote;
- **chaos-recovery correctness under timing** — every timed crash +
  corruption + storm run must still complete every request with streams
  bit-equal to the per-request oracle and zero leaked blocks (each timed
  run is re-verified, so the bench cannot rot into measuring a broken
  engine);
- **recovery cost stays bounded** — the faulted run's wall time must
  stay within 10x the fault-free run (backoff is on the virtual clock,
  not wall time; the real cost is recompute work).

Both ratios are timed by :func:`repro.obs.bench.paired_ratio`.
"""

import numpy as np

from repro.nn import generate
from repro.obs.bench import _serve_decode_workload, paired_ratio
from repro.resilience import (
    AllocExhaustion,
    DecodeCrash,
    KVCorruption,
    ServeChaosPlan,
)
from repro.serve import PagedKVCache, ServeEngine, poisson_trace


def _model():
    model, _ = _serve_decode_workload()
    return model


def _trace(model, **kw):
    return poisson_trace(6, 0.7, vocab_size=model.config.vocab_size,
                         seed=2, prompt_len=(4, 8), max_new=(8, 16),
                         temperature=1.0, top_k=5, **kw)


CHAOS = ServeChaosPlan(
    crashes=(DecodeCrash(at_step=2),),
    corruptions=(KVCorruption(at_step=6),),
    exhaustions=(AllocExhaustion(at_step=10, steps=3),),
)


def _engine_run(model, guarded: bool):
    trace = (_trace(model, deadline_steps=512, queue_ttl=256) if guarded
             else _trace(model))

    def build():
        cache = PagedKVCache.for_model(model, num_blocks=16, block_size=4,
                                       checksums=guarded)
        if guarded:
            engine = ServeEngine(model, cache, max_queue=32)
        else:
            engine = ServeEngine(model, cache)

        def run():
            engine.run(trace)
            cache.assert_empty()

        return run

    return build


def test_robustness_bookkeeping_overhead_under_5_percent():
    """Deadlines + TTLs + bounded queue + checksums, no faults: <5%."""
    model = _model()
    ratio = paired_ratio(_engine_run(model, guarded=False),
                         _engine_run(model, guarded=True))
    overhead = ratio.median - 1.0
    print(f"\nguarded/plain {ratio.ratio_summary()}")
    assert overhead < 0.05, (
        f"robustness bookkeeping overhead {overhead*100:.1f}% exceeds the "
        "5% budget"
    )


def test_chaos_recovery_correct_and_bounded():
    model = _model()
    trace = _trace(model)
    runs = []

    def faulted():
        cache = PagedKVCache.for_model(model, num_blocks=16, block_size=4,
                                       checksums=True)
        engine = ServeEngine(model, cache, chaos=CHAOS)

        def run():
            runs.append((engine, engine.run(trace)))
            cache.assert_empty()

        return run

    slowdown = paired_ratio(_engine_run(model, guarded=False), faulted)
    oracles = {
        req.request_id: generate(model, np.array(req.prompt),
                                 req.max_new_tokens,
                                 temperature=req.temperature, top_k=req.top_k,
                                 rng=np.random.default_rng(req.seed),
                                 stop_ids=set(req.stop_ids))
        for req in trace
    }
    for engine, report in runs:
        agg = report.to_dict()["aggregate"]
        assert agg["retries"] > 0  # the faults really fired
        assert agg["outcomes"]["completed"] == len(trace)
        for request_id, oracle in oracles.items():
            np.testing.assert_array_equal(oracle, engine.outputs[request_id])
    print(f"\nfaulted/clean {slowdown.ratio_summary()} "
          f"retries={agg['retries']}")
    assert slowdown.median < 10.0, (
        f"chaos recovery cost {slowdown.median:.1f}x exceeds the 10x bound"
    )
