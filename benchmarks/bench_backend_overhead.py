"""The backend abstraction must be (near) free, and the mp backend
must actually buy parallel speed where there are cores to spend.

Three guards on the ``repro.comm.backend`` seam from ISSUE 7:

- routing a collective through :class:`~repro.comm.backend.CoopBackend`
  vs. calling the ``repro.comm.primitives`` functions directly costs
  <5% — the dispatch layer is a method lookup, not a runtime tax;
- a data-parallel training step under ``--backend mp`` stays within a
  bounded constant factor of coop even on a single core (the shm ring
  plus 2(d-1)+2 barriers per step must not blow up wall time);
- on hosts with >= 4 usable cores (CI runners qualify; this container
  does not), the d=4 macro workload must run >= 1.5x faster under mp
  than under coop — the headline speedup the PR's BENCH files record.

Every ratio is timed by :func:`repro.obs.bench.paired_ratio`.  The
step guards keep one warmed trainer per backend alive across all pairs,
so worker spawn stays outside the timer.
"""

import os

import numpy as np

from repro.comm import TrafficLog
from repro.comm.backend import get_backend
from repro.comm.primitives import ring_all_reduce
from repro.obs.bench import _d4_engine, _tiny_engine, paired_ratio


def _usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def _step_ratio(engine, base: str, variant: str, inner: int = 3):
    """``variant``/``base`` backend time for ``inner`` train steps."""
    _, _, base_trainer, ids, targets = engine(base)
    _, _, variant_trainer, _, _ = engine(variant)
    with base_trainer, variant_trainer:
        def steps(trainer):
            return lambda: [trainer.train_step(ids, targets)
                            for _ in range(inner)]

        return paired_ratio(lambda: steps(base_trainer),
                            lambda: steps(variant_trainer))


def test_coop_dispatch_under_5_percent():
    rng = np.random.default_rng(0)
    bufs = [rng.standard_normal((64, 64)) for _ in range(4)]
    ranks = [0, 1, 2, 3]
    backend = get_backend("coop")

    def direct():
        for _ in range(20):
            ring_all_reduce([b.copy() for b in bufs], ranks, TrafficLog())

    def routed():
        for _ in range(20):
            backend.all_reduce([b.copy() for b in bufs], ranks, TrafficLog())

    ratio = paired_ratio(lambda: direct, lambda: routed)
    overhead = ratio.median - 1.0
    print(f"\nrouted/direct {ratio.ratio_summary()}")
    assert overhead < 0.05, (
        f"backend dispatch adds {overhead*100:.1f}% over calling the "
        "primitives directly, exceeding the 5% budget"
    )


def test_mp_step_bounded_on_any_host():
    # Even time-slicing every worker on one core, the shm ring must
    # keep a d=2 step within 2x of the in-process oracle.
    ratio = _step_ratio(lambda backend: _tiny_engine(1, 1, 2, backend),
                        "coop", "mp")
    print(f"\nmp/coop {ratio.ratio_summary()}")
    assert ratio.median < 2.0, (
        f"mp step is {ratio.median:.2f}x the coop step; the shm ring or "
        "its barriers regressed"
    )


def test_mp_speedup_on_multicore():
    # The acceptance gate: with >= 4 cores, four real processes beat
    # the single-process oracle on the d=4 macro workload. Single-core
    # hosts (like the dev container) can only time-slice, so the gate
    # is conditional -- there the bounded-overhead test above applies.
    cores = _usable_cores()
    if cores < 4:
        import pytest
        pytest.skip(f"only {cores} usable core(s); mp cannot beat coop "
                    "without parallel hardware")
    speedup = _step_ratio(_d4_engine, "mp", "coop")
    print(f"\ncoop/mp {speedup.ratio_summary()} on {cores} cores")
    assert speedup.median >= 1.5, (
        f"mp only reaches {speedup.median:.2f}x over coop on {cores} "
        "cores; the d=4 workload should parallelize >= 1.5x"
    )
