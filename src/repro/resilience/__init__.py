"""Fault injection, failure recovery, and goodput modelling.

The production-robustness arm of the reproduction: the paper's §5.10
prices checkpoint I/O because at 3072-GPU scale failures are routine,
and MegaScale (Jiang et al., 2024) makes detect / restart-from-
checkpoint / goodput the defining concern beyond raw PTD-P throughput.

- :mod:`repro.resilience.faults` — declarative
  :class:`~repro.resilience.faults.FaultPlan` (rank failures, link
  degradation, stragglers) plus injectors into the discrete-event
  simulator and the comm cost model;
- :mod:`repro.resilience.detect` — heartbeat/timeout detection
  latency;
- :mod:`repro.resilience.recovery` — restart-from-last-checkpoint
  policy priced by :mod:`repro.io_sim`, and the Young/Daly optimal
  checkpoint interval;
- :mod:`repro.resilience.goodput` — exact event-accounted
  :class:`~repro.resilience.goodput.GoodputReport` for a run under a
  failure trace (exported through :mod:`repro.obs`), the steady-state
  expectation, and the checkpoint-interval sweep behind
  ``python -m repro goodput``;
- :mod:`repro.resilience.chaos` — declarative
  :class:`~repro.resilience.chaos.ChaosPlan`, the *live* twin of
  ``FaultPlan``: kills, checkpoint corruption, and transient save
  failures injected into the real engine;
- :mod:`repro.resilience.harness` — supervised
  :class:`~repro.resilience.harness.ChaosHarness` that trains through a
  chaos plan with durable checkpoints, retries, fallback, and optional
  resharding, behind ``python -m repro chaos``;
- :mod:`repro.resilience.serve_chaos` — the *serving* twin:
  :class:`~repro.resilience.serve_chaos.ServeChaosPlan` injects decode
  crashes, KV-block corruption, and allocator-exhaustion storms into
  the continuous-batching engine (``repro serve --chaos``), recovered
  by capped-exponential-backoff recompute retries.
"""

from .chaos import (
    ChaosPlan,
    CorruptCheckpoint,
    Kill,
    LossSpike,
    RankFailureError,
    SaveFailure,
    Stall,
    TransientSaveError,
    corrupt_file,
)
from .detect import HeartbeatDetector
from .faults import (
    FaultPlan,
    LinkDegradation,
    RankFailure,
    Straggler,
    degrade_cost_model,
    fault_regimes,
    faulted_iteration_seconds,
    options_with_faults,
)
from .goodput import (
    ExpectedGoodput,
    GoodputReport,
    GoodputScenario,
    SweepResult,
    expected_goodput,
    goodput_scenarios,
    log_spaced_intervals,
    simulate_goodput,
    sweep_checkpoint_interval,
)
from .harness import (
    ChaosHarness,
    ChaosReport,
    HarnessGaveUpError,
    RecoveryRecord,
    batch_for_iteration,
    run_baseline,
    run_reset_reference,
    shrink_parallel,
)
from .recovery import (
    RecoveryEvent,
    RestartPolicy,
    cluster_mtbf,
    young_daly_interval,
)
from .serve_chaos import (
    AllocExhaustion,
    DecodeCrash,
    DecodeCrashError,
    KVCorruption,
    ServeChaosInjector,
    ServeChaosPlan,
)

__all__ = [
    "ChaosPlan",
    "Kill",
    "CorruptCheckpoint",
    "SaveFailure",
    "LossSpike",
    "Stall",
    "RankFailureError",
    "TransientSaveError",
    "corrupt_file",
    "ChaosHarness",
    "ChaosReport",
    "HarnessGaveUpError",
    "RecoveryRecord",
    "batch_for_iteration",
    "run_baseline",
    "run_reset_reference",
    "shrink_parallel",
    "FaultPlan",
    "RankFailure",
    "LinkDegradation",
    "Straggler",
    "degrade_cost_model",
    "options_with_faults",
    "fault_regimes",
    "faulted_iteration_seconds",
    "HeartbeatDetector",
    "RecoveryEvent",
    "RestartPolicy",
    "cluster_mtbf",
    "young_daly_interval",
    "GoodputReport",
    "ExpectedGoodput",
    "SweepResult",
    "GoodputScenario",
    "expected_goodput",
    "simulate_goodput",
    "sweep_checkpoint_interval",
    "log_spaced_intervals",
    "goodput_scenarios",
    "ServeChaosPlan",
    "ServeChaosInjector",
    "DecodeCrash",
    "DecodeCrashError",
    "KVCorruption",
    "AllocExhaustion",
]
