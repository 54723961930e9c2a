"""The differential core: run a variant and its oracle, compare them.

Every comparing section of ``python -m repro verify``, and the
verdicts of ``repro chaos`` and ``repro serve --smoke``, make their
decisions here; :mod:`repro.verify` states which pairs each compares
and in which mode.

- **training a case** -- :func:`case_batch` draws a
  :class:`~repro.verify.conformance.ConformanceCase`'s seeded global
  batch, :func:`build_trainer` lays out its PTD-P trainer, and
  :func:`train_case` trains it (PTD-P or ZeRO-3, coop or mp) into a
  :class:`TrainRun`;
- **comparing training** -- :func:`loss_failures` and
  :func:`state_failures` compare per-iteration losses and gathered
  serial-layout state dicts either exactly or at the fp64 bounds below;
- **comparing serving** -- :func:`run_engine` drives a
  :class:`~repro.serve.ServeEngine` under a run logger,
  :func:`stream_failures` holds streams to their per-request
  ``generate`` oracle, and :func:`replay_failures` demands a second
  run replays the first.

Every comparator returns human-readable failure lines (empty = pass);
callers prefix their check's name and, for sampled cases, the case's
seeded repro string.
"""

from __future__ import annotations

import io
import json
from dataclasses import dataclass

import numpy as np

LR = 1e-2

# fp64 exactness up to ring-reduction summation order.
LOSS_RTOL, LOSS_ATOL = 1e-9, 1e-12
PARAM_RTOL, PARAM_ATOL = 1e-8, 1e-11

# The output head's copy of the tied embedding.  Tolerant compares set
# a parallel layout against the serial one, where only the embedding
# names the tied weight, so they skip it.
TIED_HEAD = "head.tied"


# -- training a case ---------------------------------------------------------


@dataclass
class TrainRun:
    """What one trained case computed."""

    losses: list[float]
    state: dict[str, np.ndarray]
    traffic: list[tuple]
    # PTD-P only: per-replica parameter arrays and replica 0's Adam
    # state (``step_count`` and the ``m`` / ``v`` moment lists).
    replicas: list[list[np.ndarray]] | None = None
    optimizer: dict | None = None


def case_batch(case, config) -> tuple[np.ndarray, np.ndarray]:
    """The case's seeded global batch of token ids and targets."""
    rng = np.random.default_rng(case.seed)
    shape = (case.global_batch_size, config.seq_length)
    ids = rng.integers(0, config.vocab_size, size=shape)
    targets = rng.integers(0, config.vocab_size, size=shape)
    return ids, targets


def build_trainer(case, config, **kwargs):
    """A :class:`~repro.parallel.PTDTrainer` laid out as ``case``;
    ``kwargs`` (``log``, ``backend``) pass through."""
    from repro.config import ParallelConfig
    from repro.parallel import PTDTrainer

    parallel = ParallelConfig(
        pipeline_parallel_size=case.p,
        tensor_parallel_size=case.t,
        data_parallel_size=case.d,
        microbatch_size=case.b,
        global_batch_size=case.global_batch_size,
        num_model_chunks=case.v,
    )
    parallel.validate_for_model(config)
    return PTDTrainer(
        config, parallel, schedule=case.schedule, seed=0, lr=LR,
        recompute_activations=case.recompute, **kwargs,
    )


def _records(log) -> list[tuple]:
    return [(r.src, r.dst, r.nbytes, r.kind.value, r.tag) for r in log.records]


def train_case(case, config, ids, targets, *, backend: str = "coop",
               perturb: float = 0.0) -> TrainRun:
    """Train ``case.iterations`` steps on ``(ids, targets)``.

    ``perturb`` (coop PTD-P only) models a silently corrupted gradient:
    it is added to one element of replica 0's first parameter after
    training, before the state is gathered -- the bad update has
    already landed by the time anyone compares.
    """
    from repro.comm import TrafficLog

    log = TrafficLog()
    if case.zero:
        return _train_zero3(case, config, ids, targets, backend, log)
    trainer = build_trainer(case, config, log=log, backend=backend)
    try:
        losses = [trainer.train_step(ids, targets)
                  for _ in range(case.iterations)]
        if perturb:
            trainer.replicas[0].parameters()[0].data.ravel()[0] += perturb
        state = trainer.gather_state_dict()
        opt = trainer.optimizers[0]
        return TrainRun(
            losses=losses,
            state=state,
            traffic=_records(log),
            replicas=[[p.data.copy() for p in r.parameters()]
                      for r in trainer.replicas],
            optimizer={"step_count": opt.step_count,
                       "m": [a.copy() for a in opt._m],
                       "v": [a.copy() for a in opt._v]},
        )
    finally:
        trainer.close()


def _train_zero3(case, config, ids, targets, backend, log) -> TrainRun:
    """Fully-sharded data parallel (the §5.2 ZeRO-3 baseline)."""
    from repro.nn import GPTModel
    from repro.parallel import Zero3Engine

    model = GPTModel(config, seed=0)
    params = model.parameters()
    engine = Zero3Engine(params, case.d, lr=LR, log=log, backend=backend)
    try:
        shard_ids = np.split(ids, case.d)
        shard_tgts = np.split(targets, case.d)
        losses = []
        for _ in range(case.iterations):
            engine.gather_params("fwd")
            replica_grads, step_losses = [], []
            for r in range(case.d):
                model.zero_grad()
                engine.gather_params("bwd")
                loss, caches = model.loss(shard_ids[r], shard_tgts[r])
                model.loss_backward(caches)
                replica_grads.append([p.grad.copy() for p in params])
                step_losses.append(loss)
            engine.reduce_and_step(replica_grads)
            losses.append(float(np.mean(step_losses)))
        engine.gather_params("final")
        return TrainRun(losses=losses, state=model.state_dict(),
                        traffic=_records(log))
    finally:
        engine.close()


# -- comparing training ------------------------------------------------------


def loss_failures(got, want, *, exact: bool, oracle: str = "baseline",
                  start: int = 0) -> list[str]:
    """Per-iteration losses from ``start`` on: ``==`` when ``exact``,
    else within the fp64 loss bounds."""
    if len(got) != len(want):
        return [f"{len(got)} losses vs {len(want)} from the {oracle}"]
    failures = []
    for i in range(start, len(want)):
        g, w = got[i], want[i]
        ok = g == w if exact else np.isclose(g, w, rtol=LOSS_RTOL,
                                             atol=LOSS_ATOL)
        if not ok:
            failures.append(
                f"iteration {i} loss {g!r} != {oracle} {w!r} "
                f"(|diff|={abs(g - w):.3e})"
            )
    return failures


def state_failures(got: dict, want: dict, *, exact: bool,
                   oracle: str = "baseline") -> list[str]:
    """Gathered state dicts, parameter by parameter.  ``exact`` demands
    the same key set and identical bits; otherwise every oracle
    parameter but the tied head copy must be present and within the
    fp64 parameter bounds."""
    failures = []
    for name, w in want.items():
        if name == TIED_HEAD and not exact:
            continue
        g = got.get(name)
        if g is None:
            failures.append(f"state is missing parameter {name}")
        elif g.shape != w.shape:
            failures.append(f"parameter {name}: shape {g.shape} != {w.shape}")
        elif not (np.array_equal(g, w) if exact else
                  np.allclose(g, w, rtol=PARAM_RTOL, atol=PARAM_ATOL)):
            failures.append(
                f"parameter {name} deviates from {oracle} "
                f"(max |diff|={np.max(np.abs(g - w)):.3e})"
            )
    if exact:
        failures += [f"parameter {name} is not in the {oracle}"
                     for name in got if name not in want]
    return failures


# -- comparing serving -------------------------------------------------------


def run_engine(model, trace, *, num_blocks: int, block_size: int,
               checksums: bool = False, **engine_kw):
    """One deterministic engine run; returns ``(engine, report, events)``.

    ``events`` are the run-log request/iteration/fault events with
    their wall-clock fields stripped: everything left is on the
    virtual clock and must replay bit-exactly.
    """
    from repro.obs.runlog import RunLogger
    from repro.serve import PagedKVCache, ServeEngine

    cache = PagedKVCache.for_model(
        model, num_blocks=num_blocks, block_size=block_size,
        checksums=checksums,
    )
    buf = io.StringIO()
    logger = RunLogger(buf, "serve-check", clock=lambda: 0.0)
    logger.start("serve")
    engine = ServeEngine(model, cache, logger=logger, **engine_kw)
    report = engine.run(trace)
    events = []
    for line in buf.getvalue().splitlines():
        event = json.loads(line)
        if event["type"] not in ("request", "iteration", "fault"):
            continue
        event.pop("t", None)
        event.pop("seconds", None)
        events.append(event)
    return engine, report, events


def stream_failures(model, trace, outputs, *, completed=None) -> list[str]:
    """Each request's engine stream must equal its single-request
    full-recompute ``generate`` oracle, token for token.  ``completed``
    (request ids) restricts the check to requests that finished; typed
    degradation outcomes have no full stream to compare."""
    from repro.nn.generate import generate

    failures = []
    for req in trace:
        if completed is not None and req.request_id not in completed:
            continue
        oracle = generate(
            model, np.array(req.prompt), req.max_new_tokens,
            temperature=req.temperature, top_k=req.top_k,
            rng=np.random.default_rng(req.seed),
            stop_ids=set(req.stop_ids),
        )
        got = outputs.get(req.request_id)
        if got is None or not np.array_equal(oracle, got):
            failures.append(
                f"engine stream for {req.request_id} != its generate "
                f"oracle: oracle={oracle.tolist()} "
                f"engine={None if got is None else got.tolist()}"
            )
    return failures


def replay_failures(first, second) -> list[str]:
    """Two :func:`run_engine` results of the same inputs must agree on
    token streams, per-request metrics and the event sequence."""
    engine1, report1, events1 = first
    engine2, report2, events2 = second
    failures = [
        f"replay diverged on {rid}'s token stream"
        for rid, stream in engine1.outputs.items()
        if not np.array_equal(stream, engine2.outputs.get(rid))
    ]
    if report1.to_dict()["requests"] != report2.to_dict()["requests"]:
        failures.append("replay diverged on per-request metrics")
    if events1 != events2:
        failures.append("replay diverged on the run-log event sequence")
    return failures
