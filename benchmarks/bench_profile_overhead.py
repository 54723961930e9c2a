"""The profiler must be (near) free: post-processing a trace into
self/total attribution and folded stacks costs <5% of the traced
iteration itself.

The observatory contract, the post-processing twin of
``bench_trace_overhead.py``: ``profile_tracer`` + ``folded_stacks``
over a full iteration trace vs. the traced iteration's own wall time —
analysis must stay a rounding error next to the work it analyses.  The
untraced-step half of that contract (telemetry hooks stay inert without
a tracer) is a tier-1 test in ``tests/test_ptd_trainer.py``.

Both arms are timed by :func:`repro.obs.bench.paired_ratio`; the
post-processing arm re-analyses one captured iteration trace.
"""

from repro.obs import trace
from repro.obs.bench import _tiny_engine, paired_ratio
from repro.obs.profile import folded_stacks, profile_tracer


def _traced_iteration():
    _, _, trainer, ids, targets = _tiny_engine()

    def step():
        with trace():
            trainer.train_step(ids, targets)

    return step


def test_profiler_postprocess_under_5_percent():
    _, _, trainer, ids, targets = _tiny_engine()
    with trace() as tracer:
        trainer.train_step(ids, targets)

    def postprocess():
        folded_stacks(profile_tracer(tracer))

    ratio = paired_ratio(_traced_iteration, lambda: postprocess)
    print(f"\npostprocess/iteration {ratio.ratio_summary()}")
    assert ratio.median < 0.05, (
        f"profiler post-processing is {ratio.median*100:.1f}% of iteration "
        "time, exceeding the 5% budget"
    )
