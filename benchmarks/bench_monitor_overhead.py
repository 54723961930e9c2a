"""Run logging must be (near) free: <5% iteration-time overhead when a
run logger is active.

The mission-control contract from ISSUE 7, the runlog twin of
``bench_trace_overhead.py``: ``repro.obs.runlog`` **active** vs. the
bare baseline — the per-iteration heartbeat + iteration record (JSON
encode, write, flush) plus the per-replica busy-time clocks must
together cost less than 5% of iteration time.  When inactive, the
dormant hook is one ``current_run_logger()`` truthiness check per
``train_step``, so the bare arm is the dormant path.

Each arm is one ``train_step`` on a fresh trainer (so cached eq. (3)
FLOPs never carry across measurements), timed by
:func:`repro.obs.bench.paired_ratio`.
"""

import io

from repro.obs.bench import _tiny_engine, paired_ratio
from repro.obs.runlog import RunLogger, run_logging


def _unlogged():
    _, _, trainer, ids, targets = _tiny_engine()
    return lambda: trainer.train_step(ids, targets)


def _logged():
    _, _, trainer, ids, targets = _tiny_engine()
    logger = RunLogger(io.StringIO(), "bench")
    logger.start("engine")

    def step():
        with run_logging(logger):
            trainer.train_step(ids, targets)

    return step


def test_runlog_overhead_under_5_percent():
    ratio = paired_ratio(_unlogged, _logged)
    overhead = ratio.median - 1.0
    print(f"\nlogged/unlogged {ratio.ratio_summary()}")
    assert overhead < 0.05, (
        f"run-logging overhead {overhead*100:.1f}% exceeds the 5% budget"
    )
