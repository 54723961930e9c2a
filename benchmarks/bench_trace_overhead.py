"""Tracing must be (near) free: <5% iteration-time overhead when on.

``repro.obs`` tracing **enabled** vs. the untraced baseline on a tiny
PTD iteration (the observability contract): the span bookkeeping,
byte attribution, and FLOP attribution together must cost less than 5% of
iteration time.  When tracing is off, every hook is one
empty-list check, so the untraced arm is the dormant path.

Each arm is one ``train_step`` on a fresh trainer (so tracer span lists
never accumulate across measurements), timed by
:func:`repro.obs.bench.paired_ratio`.
"""

from repro.obs import trace
from repro.obs.bench import _tiny_engine, paired_ratio


def _untraced():
    _, _, trainer, ids, targets = _tiny_engine()
    return lambda: trainer.train_step(ids, targets)


def _traced():
    _, _, trainer, ids, targets = _tiny_engine()

    def step():
        with trace():
            trainer.train_step(ids, targets)

    return step


def test_tracing_overhead_under_5_percent():
    ratio = paired_ratio(_untraced, _traced)
    overhead = ratio.median - 1.0
    print(f"\ntraced/untraced {ratio.ratio_summary()}")
    assert overhead < 0.05, (
        f"tracing overhead {overhead*100:.1f}% exceeds the 5% budget"
    )
