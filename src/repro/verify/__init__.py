"""Correctness-verification subsystem: ``python -m repro verify``.

Turns the paper's validity argument -- any (data, tensor, pipeline)
decomposition preserves strict synchronous-SGD semantics (§2.2) --
into executable, CI-enforced properties.  :mod:`repro.verify.runner`
runs eight sections, in this order:

- ``schedules`` (:mod:`~repro.verify.schedule_check`) -- static
  validator over the schedule IR: dependency races, p2p send/recv
  matching (real-rank deadlocks), in-flight-microbatch memory bounds.
- ``sanitizer`` (:mod:`~repro.verify.sanitizer`) -- collective
  sanitizer hooked into :mod:`repro.comm.primitives`: per-rank
  collective timelines checked pairwise for op/group/shape/dtype
  agreement (the MegaScale lesson).
- ``conformance`` (:mod:`~repro.verify.conformance`) -- sampled
  small-model (d, t, p, v, m, recompute, ZeRO) configs trained against
  the single-rank baseline.
- ``backend`` (:mod:`~repro.verify.backend_check`) -- the mp backend
  against the coop oracle over the same sampled grid.
- ``conservation`` (:mod:`~repro.verify.conservation`) -- measured
  TrafficLog bytes and FlopMeter FLOPs against the §3.2 / eq. (3)
  closed forms, exact integer equality.
- ``chaos`` (:mod:`~repro.verify.chaos_check`) -- recovery (kill and
  resume, corrupt fallback, interrupted commits, resharding) must not
  change what training computes.
- ``serve`` (:mod:`~repro.verify.serve_check`) -- cached, batched and
  tensor-parallel decode against the ``generate`` oracle.
- ``serve-chaos`` (:mod:`~repro.verify.serve_chaos_check`) -- the
  serving engine's fault recovery and degradation under injected
  chaos.

**The differential contract.**  Every section but ``schedules``,
``sanitizer`` and ``conservation`` -- and the verdicts of ``repro
chaos`` and ``repro serve --smoke`` -- runs a *variant* and an
*oracle* on identical seeded inputs and compares what they computed,
through the one core in :mod:`repro.verify.differential`:

- conformance: a PTD-P or ZeRO-3 run vs single-rank training on the
  same global batch, at fp64 tolerance;
- backend: the same case on mp vs coop, exact (plus Adam state and
  the traffic log record for record);
- chaos: a killed-and-recovered run vs the uninterrupted run, exact;
  a resharded resume vs the serial reference with the optimizer reset
  at the restore point, at fp64 tolerance;
- serve: cached, continuously batched and tensor-parallel decode vs
  the full-recompute ``generate`` oracle, exact token streams;
- serve-chaos: every *completed* stream of a faulted engine run vs its
  per-request ``generate`` oracle, exact;
- serve and serve-chaos replay: a second engine run of the same trace
  vs the first (streams, per-request metrics, virtual-clock events),
  exact.

*Exact* is ``==`` on losses and ``np.array_equal`` over an identical
key set on state: the variant executes the oracle's arithmetic in the
oracle's order.  *fp64 tolerance* applies where the decomposition
changes ring-reduction summation order and nothing else: losses
within ``LOSS_RTOL``/``LOSS_ATOL`` and parameters within
``PARAM_RTOL``/``PARAM_ATOL`` of :mod:`~repro.verify.differential`,
skipping the head's copy of the tied embedding (``TIED_HEAD``).  Each
failure of a sampled case ends in its seeded repro string, ``repro:
python -m repro verify --case <key>``, which rebuilds the
configuration and its data; the fixed grids rerun with ``--only
<section> --seed <n>``.

This ``__init__`` resolves its public names lazily (PEP 562):
:mod:`repro.comm.primitives` imports the sanitizer hook at module load,
and an eager import of the conformance harness here (which imports
``repro.parallel`` and hence ``repro.comm``) would create a cycle.
"""

from __future__ import annotations

_EXPORTS = {
    # sanitizer (dependency-free; safe for the comm substrate to import)
    "CollectiveEvent": "sanitizer",
    "CollectiveMismatch": "sanitizer",
    "CollectiveSanitizer": "sanitizer",
    "SanitizerError": "sanitizer",
    "current_sanitizer": "sanitizer",
    "record_collective": "sanitizer",
    # schedule validator
    "ScheduleViolation": "schedule_check",
    "ScheduleViolationError": "schedule_check",
    "assert_valid_schedule": "schedule_check",
    "check_all_generators": "schedule_check",
    "in_flight_bound": "schedule_check",
    "schedule_from_json": "schedule_check",
    "schedule_to_json": "schedule_check",
    "validate_schedule": "schedule_check",
    # conformance harness
    "ConformanceCase": "conformance",
    "ConformanceResult": "conformance",
    "parse_case": "conformance",
    "run_case": "conformance",
    "sample_cases": "conformance",
    # chaos / fault-tolerance conformance
    "run_chaos_checks": "chaos_check",
    # conservation checks
    "ConservationItem": "conformance_conservation",
    "ConservationReport": "conformance_conservation",
    "check_conservation": "conformance_conservation",
    "default_conservation_configs": "conformance_conservation",
    # runner
    "VerificationReport": "runner",
    "run_verification": "runner",
}

# conservation lives in conservation.py; the table above maps through a
# distinct key so the module name stays accurate.
_MODULE_ALIASES = {"conformance_conservation": "conservation"}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    module_key = _EXPORTS[name]
    module_name = _MODULE_ALIASES.get(module_key, module_key)
    module = importlib.import_module(f".{module_name}", __name__)
    value = getattr(module, name)
    globals()[name] = value  # cache for subsequent lookups
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
