"""Cross-parallelism conformance harness.

The paper's §2/§5 validity argument is that PTD-P "retains strict
optimizer semantics": training under *any* (data, tensor, pipeline,
interleaving) decomposition computes the same losses, gradients, and
parameter updates as serial execution on the same global batch.  This
module makes that claim executable over the whole configuration space
instead of a hand-picked test matrix: it samples random small-model
``(d, t, p, v, b, m, schedule, recompute, ZeRO)`` configurations, trains
a few iterations through the real engine, and compares against the
single-rank baseline at the fp64 bounds of
:mod:`repro.verify.differential` (the engine is exact; the only
permitted deviation is floating-point summation-order noise from ring
reductions).

Every failure carries a *seeded repro string*: a ``python -m repro
verify --case ...`` invocation that deterministically reproduces the
exact failing configuration and data.

``hypothesis`` drives the same :func:`run_case` entry point from
``tests/test_verify.py``; this module itself only needs ``random`` so
the CLI works in minimal environments.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

import numpy as np

from .differential import (
    case_batch,
    loss_failures,
    state_failures,
    train_case,
)


@dataclass(frozen=True)
class ConformanceCase:
    """One sampled parallel configuration (plus data/weight seed)."""

    p: int = 1
    t: int = 1
    d: int = 1
    v: int = 1
    b: int = 1  # microbatch size
    m: int = 1  # microbatches per pipeline per iteration
    schedule: str = "1f1b"
    recompute: bool = False
    zero: bool = False
    seed: int = 0
    iterations: int = 2

    @property
    def global_batch_size(self) -> int:
        return self.b * self.m * self.d

    def key(self) -> str:
        """Canonical ``k=v,...`` form, accepted by :func:`parse_case`."""
        return (
            f"p={self.p},t={self.t},d={self.d},v={self.v},b={self.b},"
            f"m={self.m},schedule={self.schedule},"
            f"recompute={int(self.recompute)},zero={int(self.zero)},"
            f"seed={self.seed},iterations={self.iterations}"
        )

    @property
    def repro_string(self) -> str:
        return f"python -m repro verify --case {self.key()}"

    def describe(self) -> str:
        extras = []
        if self.recompute:
            extras.append("recompute")
        if self.zero:
            extras.append("zero3")
        suffix = f" [{'+'.join(extras)}]" if extras else ""
        return (
            f"(p={self.p}, t={self.t}, d={self.d}, v={self.v}, b={self.b}, "
            f"m={self.m}, {self.schedule}, seed={self.seed}){suffix}"
        )


def parse_case(text: str) -> ConformanceCase:
    """Parse the ``--case p=2,t=1,...`` CLI form (inverse of ``key``)."""
    bools = {"recompute", "zero"}
    strings = {"schedule"}
    kwargs: dict = {}
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        if "=" not in part:
            raise ValueError(f"malformed case entry {part!r}: expected key=value")
        key, _, value = part.partition("=")
        key = key.strip()
        if key not in ConformanceCase.__dataclass_fields__:
            raise ValueError(f"unknown case field {key!r}")
        if key in strings:
            kwargs[key] = value.strip()
        elif key in bools:
            kwargs[key] = bool(int(value))
        else:
            kwargs[key] = int(value)
    case = ConformanceCase(**kwargs)
    _check_case(case)
    return case


def _check_case(case: ConformanceCase) -> None:
    for name in ("p", "t", "d", "v", "b", "m"):
        if getattr(case, name) < 1:
            raise ValueError(f"case field {name} must be >= 1")
    if case.zero and (case.p, case.t, case.v) != (1, 1, 1):
        raise ValueError("ZeRO-3 conformance cases require p=t=v=1")
    if case.v > 1 and case.m % case.p != 0:
        raise ValueError("interleaved cases need m to be a multiple of p")
    if case.iterations < 1:
        raise ValueError("iterations must be >= 1")


def model_for_case(case: ConformanceCase):
    """A tiny GPT whose dimensions satisfy the case's divisibility
    constraints (layers % p*v, heads/ffn/vocab % t)."""
    from repro.config import tiny_test_model

    stages = case.p * case.v
    return tiny_test_model(
        num_layers=max(stages, 2) if max(stages, 2) % stages == 0 else stages,
        hidden_size=16,
        num_attention_heads=4,
        vocab_size=32,
        seq_length=8,
    )


@dataclass
class ConformanceResult:
    case: ConformanceCase
    ok: bool
    failures: list[str] = field(default_factory=list)
    losses_parallel: list[float] = field(default_factory=list)
    losses_baseline: list[float] = field(default_factory=list)

    def describe(self) -> str:
        status = "ok" if self.ok else "FAIL"
        out = f"{status}  {self.case.describe()}"
        if not self.ok:
            for f in self.failures:
                out += f"\n      {f}"
            out += f"\n      repro: {self.case.repro_string}"
        return out


def run_case(
    case: ConformanceCase, *, perturb_gradient: float = 0.0
) -> ConformanceResult:
    """Train ``case`` and the single-rank baseline; compare everything.

    ``perturb_gradient`` injects a silent gradient corruption into the
    parallel run (mutation testing for the harness itself): a correct
    harness must flag any non-zero perturbation above fp64 noise.
    """
    _check_case(case)
    config = model_for_case(case)
    ids, targets = case_batch(case, config)

    # Single-rank reference: p=t=d=v=1, the whole batch in one
    # microbatch -- serial execution in the paper's sense.
    serial = ConformanceCase(b=case.global_batch_size, seed=case.seed,
                             iterations=case.iterations)
    base = train_case(serial, config, ids, targets)
    par = train_case(case, config, ids, targets, perturb=perturb_gradient)

    # 1. per-iteration losses agree with serial execution.
    failures = loss_failures(par.losses, base.losses, exact=False)

    # 2. data-parallel replicas hold identical parameters (the averaged
    #    gradient and the optimizer step are shared state).
    replicas = par.replicas or []
    for rep_idx, params in enumerate(replicas[1:], start=1):
        diverged = next(
            ((p_idx, a, b) for p_idx, (a, b)
             in enumerate(zip(replicas[0], params))
             if not np.array_equal(a, b)),
            None,
        )
        if diverged is not None:
            p_idx, a, b = diverged
            failures.append(
                f"replica {rep_idx} parameter #{p_idx} diverged "
                f"from replica 0 (max |diff|={np.max(np.abs(a - b)):.3e})"
            )
            break

    # 3. final parameters match the baseline in serial layout.
    failures += state_failures(par.state, base.state, exact=False)

    return ConformanceResult(
        case=case,
        ok=not failures,
        failures=failures,
        losses_parallel=[float(x) for x in par.losses],
        losses_baseline=[float(x) for x in base.losses],
    )


def sample_cases(n: int, seed: int = 0) -> list[ConformanceCase]:
    """Deterministically sample ``n`` valid configurations.

    Coverage is stratified rather than uniform: every call mixes plain
    DP, TP, PP, interleaved PP, recompute, and ZeRO-3 cases, with the
    composed (p>1, t>1, d>1) corner over-represented -- that corner is
    where scheduling, collectives, and gradient averaging interact.
    """
    rng = random.Random(seed)
    cases: list[ConformanceCase] = []
    while len(cases) < n:
        roll = rng.random()
        if roll < 0.15:
            # ZeRO-3 (fully sharded DP) vs serial.
            case = ConformanceCase(
                d=rng.choice([2, 4]),
                b=rng.choice([1, 2]),
                m=1,
                zero=True,
                schedule="1f1b",
                seed=rng.randrange(10_000),
            )
        else:
            p = rng.choice([1, 2, 2, 4])
            v = rng.choice([1, 2]) if p >= 2 else 1
            t = rng.choice([1, 2])
            d = rng.choice([1, 2])
            if p * t * d > 8:
                continue
            if v > 1:
                schedule = rng.choice(["interleaved", "interleaved-gpipe"])
                m = p * rng.choice([1, 2])
            else:
                schedule = rng.choice(["gpipe", "1f1b", "1f1b"])
                m = rng.choice([1, 2, 4])
            case = ConformanceCase(
                p=p, t=t, d=d, v=v,
                b=rng.choice([1, 2]),
                m=m,
                schedule=schedule,
                recompute=rng.random() < 0.3,
                seed=rng.randrange(10_000),
            )
        cases.append(case)
    return cases
