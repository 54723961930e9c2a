"""Serving performance contracts: the paged KV cache must actually pay
for itself, and serve metrics must be (near) free.

The ISSUE 9 guards, the serving twin of ``bench_monitor_overhead.py``:

- **cached decode speedup** — incremental ``forward_step`` over the
  paged KV cache re-attends O(n) per token where the ``generate``
  oracle recomputes O(n^2); on a 64-position window the cached path
  must be at least 1.5x faster end to end (measured ~2.5-3x);
- **serve-metrics overhead** — running the engine with a live
  ``RunLogger`` (request lifecycle + per-tick iteration events) must
  cost less than 5% of engine wall time vs. an unlogged engine;
- **TTFT/throughput report** — the trace run must produce a
  schema-valid SLO report (printed for the record).

Both ratios are timed by :func:`repro.obs.bench.paired_ratio`; the
decode arms are the ``serve.decode.*`` bench-registry scenarios.
"""

import io

from repro.obs.bench import SCENARIOS, _serve_decode_workload, paired_ratio
from repro.obs.runlog import RunLogger
from repro.serve import (
    PagedKVCache,
    ServeEngine,
    poisson_trace,
    validate_serve_metrics,
)


def test_cached_decode_at_least_1_5x_faster():
    speedup = paired_ratio(SCENARIOS["serve.decode.cached"].build,
                           SCENARIOS["serve.decode.recompute"].build)
    print(f"\nrecompute/cached {speedup.ratio_summary()}")
    assert speedup.median > 1.5, (
        f"paged KV cache speedup {speedup.median:.2f}x below the 1.5x floor"
    )


# -- engine + metrics overhead ----------------------------------------------

def _model_and_trace():
    model, _ = _serve_decode_workload()
    trace = poisson_trace(6, 0.7, vocab_size=model.config.vocab_size,
                          seed=2, prompt_len=(4, 8), max_new=(8, 16),
                          temperature=1.0, top_k=5)
    return model, trace


def _engine_run(model, trace, logged: bool):
    def build():
        cache = PagedKVCache.for_model(model, num_blocks=16, block_size=4)
        if logged:
            logger = RunLogger(io.StringIO(), "bench")
            logger.start("serve")
            engine = ServeEngine(model, cache, logger=logger)
        else:
            engine = ServeEngine(model, cache)

        def run():
            engine.run(trace)
            cache.assert_empty()

        return run

    return build


def test_serve_metrics_overhead_under_5_percent():
    model, trace = _model_and_trace()
    ratio = paired_ratio(_engine_run(model, trace, logged=False),
                         _engine_run(model, trace, logged=True))
    overhead = ratio.median - 1.0
    print(f"\nlogged/unlogged {ratio.ratio_summary()}")
    assert overhead < 0.05, (
        f"serve-metrics overhead {overhead*100:.1f}% exceeds the 5% budget"
    )


def test_trace_run_reports_valid_slos():
    model, trace = _model_and_trace()
    cache = PagedKVCache.for_model(model, num_blocks=16, block_size=4)
    report = ServeEngine(model, cache).run(trace)
    cache.assert_empty()
    payload = report.to_dict()
    assert validate_serve_metrics(payload) == []
    agg = payload["aggregate"]
    print(f"\nttft p95={agg['ttft_steps_p95']:.1f} steps  "
          f"latency p95={agg['latency_steps_p95']:.1f} steps  "
          f"throughput={agg['tokens_per_s']:.0f} tok/s")
    assert agg["total_generated_tokens"] == sum(
        r.max_new_tokens for r in trace)  # no stop_ids: all run to length
