"""Conservation checks: measured traffic and FLOPs vs §3.2 closed forms.

The performance model (``repro.perf``) predicts throughput from the
paper's analytic communication volumes and eq. (3) FLOP counts.  Those
predictions are only as good as the premise that the *engine* actually
moves those bytes and performs those FLOPs.  This module closes the
loop: it runs one real training iteration with a :class:`TrafficLog`
and :class:`FlopMeter` attached and asserts *exact integer equality*
between the measured totals and the closed forms:

- **DP**: per-parameter ring all-reduce moves ``2 (d-1) * 8 * P_replica``
  bytes per iteration (the §3.3.1 ``(d-1)/d`` ring volume, summed over
  the group's d ranks, fp64 internals).
- **PP**: every microbatch crosses every one of the ``p*v - 1`` stage
  boundaries forward and backward, ``t`` tensor-parallel copies of a
  ``(b, s, h)`` fp64 activation each; tied-embedding sync adds
  ``2 * V * h * 8`` per replica when ``p > 1``.
- **TP**: the §3.2 per-layer g/f all-reduces each move
  ``2 (t-1) * b * s * h * 8`` bytes per call, ``l * m`` calls per
  replica per tag; activation recompute re-runs the forward and exactly
  doubles the g-tag (forward) volume.
- **FLOPs**: the metered GEMM work equals
  ``config.flops_per_iteration(B, with_recompute)`` -- plus exactly one
  extra logit forward (``2 B s V h``) under recompute, whose logits the
  closed form's checkpointing model assumes are not recomputed.

Any discrepancy means either the engine or the performance model has
drifted; the report names the quantity and both values.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .conformance import ConformanceCase, model_for_case
from .differential import build_trainer, case_batch


@dataclass(frozen=True)
class ConservationItem:
    """One measured-vs-analytic comparison (exact integer equality)."""

    name: str
    measured: int
    expected: int

    @property
    def ok(self) -> bool:
        return self.measured == self.expected

    def describe(self) -> str:
        status = "ok  " if self.ok else "FAIL"
        line = f"{status} {self.name}: measured={self.measured}"
        if not self.ok:
            line += f" expected={self.expected} (diff={self.measured - self.expected:+d})"
        return line


@dataclass
class ConservationReport:
    case: ConformanceCase
    items: list[ConservationItem] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(item.ok for item in self.items)

    @property
    def failures(self) -> list[ConservationItem]:
        return [item for item in self.items if not item.ok]

    def describe(self) -> str:
        status = "ok" if self.ok else "FAIL"
        out = f"{status}  conservation {self.case.describe()}"
        for item in self.items:
            if not item.ok:
                out += f"\n      {item.describe()}"
        return out


def default_conservation_configs(fast: bool = False) -> list[ConformanceCase]:
    """A small grid covering each traffic class and their composition."""
    cases = [
        # pure DP: only dp.grad.* all-reduces
        ConformanceCase(d=2, b=1, m=2, seed=11),
        # pure TP: g/f all-reduces, zero DP/PP bytes
        ConformanceCase(t=2, b=2, m=1, seed=12),
        # pure PP: p2p activations + tied-embedding sync
        ConformanceCase(p=2, b=1, m=4, schedule="gpipe", seed=13),
    ]
    if not fast:
        cases += [
            # composed PTD with 1F1B
            ConformanceCase(p=2, t=2, d=2, b=1, m=2, seed=14),
            # interleaved: v model chunks multiply the p2p boundaries
            ConformanceCase(p=2, v=2, b=1, m=2, schedule="interleaved",
                            seed=15),
            # recompute doubles forward TP volume and adds logit FLOPs
            ConformanceCase(p=2, t=2, b=1, m=2, recompute=True, seed=16),
        ]
    return cases


def _expected(case: ConformanceCase, config, trainer) -> dict[str, int]:
    """The §3.2 closed forms, in bytes (fp64 internals) and FLOPs."""
    p, t, d, v, b, m = case.p, case.t, case.d, case.v, case.b, case.m
    s = config.seq_length
    h = config.hidden_size
    l = config.num_layers
    V = config.vocab_size
    B = case.global_batch_size
    act = b * s * h * 8  # one (b, s, h) fp64 activation

    # DP: ring all-reduce of every replica parameter over the d group.
    params_per_replica = sum(
        param.data.size for param in trainer.replicas[0].parameters()
    )
    dp = 2 * (d - 1) * 8 * params_per_replica

    # PP: 2 directions x (p*v - 1) boundaries x m microbatches x t copies,
    # plus the tied-embedding ring all-reduce (2-rank group, t shards).
    pp = d * 2 * (p * v - 1) * m * t * act
    if p > 1:
        pp += d * 2 * V * h * 8

    # TP: one g and one f all-reduce per layer per microbatch per tag
    # family; ring volume 2 (t-1) x activation; recompute re-runs the
    # forward so the g (forward) tags double.
    tp_call = 2 * (t - 1) * act
    fwd_runs = 2 if case.recompute else 1
    tp_tags = {}
    for tag in ("attn.g", "mlp.g"):
        tp_tags[tag] = d * l * m * fwd_runs * tp_call
    for tag in ("attn.f", "mlp.f"):
        tp_tags[tag] = d * l * m * tp_call

    flops = config.flops_per_iteration(B, with_recompute=case.recompute)
    if case.recompute:
        # The engine re-runs the full forward including the logit
        # matmul; the closed form's checkpointing model excludes it.
        flops += 2 * B * s * h * V

    expected = {"dp.bytes": dp, "pp.bytes": pp, "flops": int(flops)}
    for tag, val in tp_tags.items():
        expected[f"tp.bytes[{tag}]"] = val
    return expected


def check_conservation(case: ConformanceCase) -> ConservationReport:
    """Train one iteration of ``case`` and compare measured vs analytic."""
    from repro.comm.traffic import TrafficKind, TrafficLog
    from repro.nn.profiler import count_flops

    if case.zero:
        raise ValueError(
            "conservation checks cover the PTD engine; ZeRO volumes are "
            "tested separately (tests/test_zero.py)"
        )
    config = model_for_case(case)
    log = TrafficLog()
    trainer = build_trainer(case, config, log=log)
    ids, targets = case_batch(case, config)
    with count_flops() as meter:
        trainer.train_step(ids, targets)

    expected = _expected(case, config, trainer)
    tp_by_tag = log.by_tag(TrafficKind.TENSOR_PARALLEL)
    measured = {
        "dp.bytes": log.total_bytes(TrafficKind.DATA_PARALLEL),
        "pp.bytes": log.total_bytes(TrafficKind.PIPELINE_P2P),
        "flops": int(meter.total_flops),
    }
    for name in expected:
        if name.startswith("tp.bytes["):
            tag = name[len("tp.bytes["):-1]
            measured[name] = tp_by_tag.get(tag, 0)

    items = [
        ConservationItem(name, measured[name], expected[name])
        for name in sorted(expected)
    ]
    return ConservationReport(case=case, items=items)
