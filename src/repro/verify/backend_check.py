"""Cross-backend conformance: mp execution vs the coop oracle.

The mp backend's correctness contract (DESIGN.md "Running on real
processes") is *bit*-exactness, not tolerance-exactness: real worker
processes moving bytes through shared memory must produce the same
float64 results as the single-process cooperative oracle because both
execute the identical ring arithmetic in the identical order.  This
module makes that executable over the same stratified random-config
grid the serial-conformance section uses:

- losses per iteration: exact equality (``==``, no tolerance),
- final parameters (serial layout): ``np.array_equal``,
- optimizer state (Adam moments + step count): ``np.array_equal``,
- the :class:`~repro.comm.traffic.TrafficLog`: record-for-record
  equality, so the §3.3.1 byte-volume identities survive the backend
  swap.

ZeRO-3 cases route their all-gather/reduce-scatter through the raw
:class:`~repro.comm.backend.MpBackend` collectives; PTD cases run the
trainer's replica-per-process path.  Every failure carries the case's
seeded repro string.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .conformance import ConformanceCase, model_for_case, sample_cases
from .differential import case_batch, loss_failures, state_failures, train_case


def check_backend_case(case: ConformanceCase) -> list[str]:
    """Run ``case`` under both backends; return bit-exactness failures."""
    config = model_for_case(case)
    ids, targets = case_batch(case, config)
    coop = train_case(case, config, ids, targets, backend="coop")
    mp = train_case(case, config, ids, targets, backend="mp")

    failures = loss_failures(mp.losses, coop.losses, exact=True,
                             oracle="coop")
    failures += state_failures(mp.state, coop.state, exact=True,
                               oracle="coop")
    if coop.optimizer is not None:
        if coop.optimizer["step_count"] != mp.optimizer["step_count"]:
            failures.append("optimizer step_count differs across backends")
        for key in ("m", "v"):
            pairs = zip(coop.optimizer[key], mp.optimizer[key])
            bad = next((i for i, (a, b) in enumerate(pairs)
                        if not np.array_equal(a, b)), None)
            if bad is not None:
                failures.append(
                    f"Adam {key}[{bad}] not bit-identical across backends"
                )
    if coop.traffic != mp.traffic:
        if len(coop.traffic) != len(mp.traffic):
            failures.append(
                f"traffic log length differs: coop {len(coop.traffic)} "
                f"records vs mp {len(mp.traffic)}"
            )
        else:
            idx, a, b = next(
                (i, x, y) for i, (x, y)
                in enumerate(zip(coop.traffic, mp.traffic)) if x != y
            )
            failures.append(
                f"traffic record #{idx} differs: coop {a} vs mp {b}"
            )
    return failures


def backend_cases(fast: bool, num_cases: int | None, seed: int,
                  ) -> list[ConformanceCase]:
    """The cross-backend grid: the standard stratified sample, trimmed
    to keep worker spawn counts reasonable in --fast mode."""
    if num_cases is None:
        num_cases = 4 if fast else 10
    cases = sample_cases(num_cases, seed=seed)
    if fast:
        cases = [replace(c, iterations=min(c.iterations, 2)) for c in cases]
    # Always include one composed multi-replica case: d>1 is where the
    # shared-memory gradient ring actually runs.
    if not any(c.d > 1 and not c.zero for c in cases):
        cases.append(ConformanceCase(p=2, d=2, b=1, m=2, seed=seed,
                                     iterations=2))
    return cases


def run_backend_checks(*, fast: bool = False, seed: int = 0,
                       num_cases: int | None = None,
                       ) -> list[tuple[str, list[str]]]:
    """Run the grid; returns ``(case, failures)`` per case, each failure
    ending in the case's repro string.  Also asserts the backends
    leaked no shared-memory segments."""
    from repro.comm.shm_ring import leaked_dev_shm_segments, live_segment_names

    results = [(case, check_backend_case(case))
               for case in backend_cases(fast, num_cases, seed)]
    leaks = live_segment_names() + leaked_dev_shm_segments()
    if leaks:
        results.append((
            ConformanceCase(seed=seed),
            [f"shared-memory segments leaked after backend grid: {leaks}"],
        ))
    return [
        (case.describe(),
         [f"{f}\nrepro: {case.repro_string}" for f in failures])
        for case, failures in results
    ]
