"""FLOP accounting for the numeric engine.

A meter that the numeric modules report their matrix-multiplication
work to while it is active on the observer stack of
:mod:`repro.obs.tracer`.  This closes the loop between the two halves of
the reproduction: the FLOPs *actually executed* by the numpy engine for
one training iteration must equal the paper's closed-form eq. (3)
(tested in ``tests/test_profiler.py``), so the analytical model and the
running system count the same work.

Usage::

    with count_flops() as meter:
        model.loss_backward(caches)
    print(meter.total_flops)

Only GEMM work is counted (the paper's convention: "The majority of
floating-point operations in the model are performed in the matrix
multiplications (GEMMs) in the transformer and logit layers"); a
multiply-add counts as 2 FLOPs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import ContextManager

from repro.obs.tracer import _ACTIVE, Tracer, activate


@dataclass
class FlopMeter:
    """Accumulates GEMM FLOPs by category."""

    by_category: dict[str, int] = field(default_factory=dict)

    def add(self, category: str, flops: int) -> None:
        if flops < 0:
            raise ValueError("flops must be >= 0")
        self.by_category[category] = self.by_category.get(category, 0) + flops

    @property
    def total_flops(self) -> int:
        return sum(self.by_category.values())

    def category(self, name: str) -> int:
        return self.by_category.get(name, 0)


def record_gemm_flops(category: str, flops: int) -> None:
    """Report GEMM work to every active meter and tracer (no-op when
    none; see the observer-stack contract in :mod:`repro.obs.tracer`)."""
    for role, observer in _ACTIVE:
        if role is FlopMeter:
            observer.add(category, flops)
        elif role is Tracer:
            observer.on_flops(category, flops)


def matmul_flops(*shape: int) -> int:
    """2 * prod(dims): FLOPs of a GEMM with the given m, k, n (, batch)."""
    out = 2
    for d in shape:
        out *= d
    return out


def count_flops() -> ContextManager[FlopMeter]:
    """Context manager activating a fresh :class:`FlopMeter`."""
    return activate(FlopMeter, FlopMeter())
