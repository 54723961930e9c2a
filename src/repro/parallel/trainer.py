"""PTD-P trainer: pipeline + tensor + data parallelism composed (§2).

``PTDTrainer`` builds ``d`` data-parallel replicas, each a
:class:`PipelineParallelGPT` (``p`` pipeline stages, optionally ``v``
interleaved chunks, each stage tensor-parallel over ``t`` ranks), places
them on the Megatron rank grid (`repro.comm.groups`), and runs strict
synchronous training:

1. the global batch is scattered across replicas,
2. each replica pipelines its ``m`` microbatches under the chosen
   schedule (flush at the end: strict optimizer semantics),
3. gradients are averaged across the data-parallel group with ring
   all-reduces (once per batch),
4. every replica's Adam takes the same step.

Because every stage of this is exact, PTD-P training is bit-identical
to serial training on the same global batch -- the property the paper
calls "retaining strict optimizer semantics", and the one the
integration tests assert for many (p, t, d, v) combinations.
"""

from __future__ import annotations

import time

import numpy as np

from repro.comm import BACKENDS, Backend, ProcessGroups, TrafficLog
from repro.comm.primitives import ring_all_reduce_hops
from repro.comm.traffic import TrafficKind
from repro.config import GPTConfig, ParallelConfig
from repro.nn import Adam
from repro.obs import span as obs_span
from repro.obs.runlog import current_run_logger
from repro.obs.tracer import current_tracer
from repro.schedule import make_schedule
from repro.verify.sanitizer import record_collective as _sanitize

from .data_parallel import all_reduce_gradients, scatter_batch
from .pipeline_parallel import PipelineParallelGPT, make_microbatches


class PTDTrainer:
    """Train a GPT with composed pipeline/tensor/data parallelism.

    ``backend`` selects the execution substrate:

    - ``"coop"`` (default): every virtual rank executes cooperatively in
      this process — the bit-exact oracle.
    - ``"mp"``: each data-parallel replica runs as a real OS process
      (:class:`~repro.parallel.mp_workers.ReplicaWorkerGroup`); the
      gradient ring all-reduce runs over shared-memory buffers with one
      barrier per ring step.  Losses, parameters, optimizer state and
      the :class:`TrafficLog` are bit-identical to the oracle (asserted
      by ``repro verify --only backend``).  The parent keeps canonical
      replicas/optimizers for checkpointing; state is pulled from
      worker 0 lazily (replicas are identical across the data-parallel
      group by construction).  Call :meth:`close` (or use the trainer
      as a context manager) to release the worker processes.
    """

    def __init__(
        self,
        config: GPTConfig,
        parallel: ParallelConfig,
        *,
        schedule: str = "1f1b",
        seed: int = 0,
        lr: float = 1e-3,
        betas: tuple[float, float] = (0.9, 0.999),
        recompute_activations: bool = False,
        dropout: float = 0.0,
        attention_dropout: float = 0.0,
        grad_clip_norm: float | None = None,
        loss_scale: float = 1.0,
        log: TrafficLog | None = None,
        backend: str | Backend = "coop",
    ):
        parallel.validate_for_model(config)
        self.config = config
        self.parallel = parallel
        self.backend_name = (
            backend.name if isinstance(backend, Backend) else backend
        )
        if self.backend_name not in BACKENDS:
            raise ValueError(
                f"unknown backend {backend!r}; expected one of {BACKENDS}"
            )
        self.groups = ProcessGroups(parallel, backend=backend)
        self.log = log if log is not None else TrafficLog()
        self.schedule = make_schedule(
            schedule,
            parallel.pipeline_parallel_size,
            parallel.num_microbatches,
            parallel.num_model_chunks,
        )
        self.replicas: list[PipelineParallelGPT] = []
        for dp in range(parallel.data_parallel_size):
            pipeline_ranks = [
                self.groups.rank_of(pp, dp, 0)
                for pp in range(parallel.pipeline_parallel_size)
            ]
            self.replicas.append(
                PipelineParallelGPT(
                    config,
                    self.schedule,
                    tensor_parallel_size=parallel.tensor_parallel_size,
                    seed=seed,
                    dropout=dropout,
                    attention_dropout=attention_dropout,
                    recompute_activations=recompute_activations,
                    log=self.log,
                    pipeline_ranks=pipeline_ranks,
                )
            )
        self._dp_ranks = self.groups.data_group(pp=0, tp=0)
        self.optimizers = [
            Adam(replica.parameters(), lr=lr, betas=betas)
            for replica in self.replicas
        ]
        if grad_clip_norm is not None and grad_clip_norm <= 0:
            raise ValueError("grad_clip_norm must be positive")
        if loss_scale <= 0:
            raise ValueError("loss_scale must be positive")
        self.grad_clip_norm = grad_clip_norm
        self.loss_scale = loss_scale
        self.recompute_activations = recompute_activations
        self.last_grad_norm: float | None = None
        self.iteration = 0
        # mp backend: one real process per data-parallel replica.  The
        # parent's replicas stay the canonical checkpoint state; the
        # staleness flags track which side holds the freshest weights.
        self._workers = None
        self._parent_stale = False
        self._workers_stale = False
        if self.backend_name == "mp":
            from .mp_workers import ReplicaWorkerGroup

            self._workers = ReplicaWorkerGroup(
                config=config,
                parallel=parallel,
                schedule=schedule,
                seed=seed,
                lr=lr,
                betas=betas,
                dropout=dropout,
                attention_dropout=attention_dropout,
                recompute_activations=recompute_activations,
                grad_clip_norm=grad_clip_norm,
                loss_scale=loss_scale,
                pipeline_ranks_per_dp=[
                    replica.pipeline_ranks for replica in self.replicas
                ],
                total_param_size=sum(
                    p.size for p in self.replicas[0].parameters()
                ),
            )
        #: Callables invoked with the trainer at the top of every
        #: ``train_step``, before any compute.  The chaos harness
        #: (:mod:`repro.resilience.harness`) injects rank failures here;
        #: an exception propagates out of ``train_step`` with no state
        #: mutated, modelling a rank dying between iterations.
        self.pre_step_hooks: list = []

    def train_step(self, ids: np.ndarray, targets: np.ndarray) -> float:
        """One strict synchronous iteration on the global batch.

        ``ids``/``targets``: (B, s) integer arrays, B the global batch
        size of the parallel config.  Returns the global mean loss.
        """
        B = self.parallel.global_batch_size
        if ids.shape[0] != B:
            raise ValueError(
                f"expected global batch of {B} sequences, got {ids.shape[0]}"
            )
        for hook in list(self.pre_step_hooks):
            hook(self)
        d = self.parallel.data_parallel_size
        m = self.parallel.num_microbatches
        shards = scatter_batch(ids, targets, d)
        losses = []
        tracer = current_tracer()
        runlog = current_run_logger()
        observed = tracer is not None or runlog is not None
        step_start = time.perf_counter() if observed else 0.0
        rank_busy: dict[int, float] | None = {} if runlog is not None else None
        with obs_span("iteration", phase="iteration", iteration=self.iteration):
            if self._workers is not None:
                self._run_step_mp(shards, d, losses, rank_busy)
            else:
                self._run_step_coop(shards, d, m, losses, rank_busy)
        mean_loss = float(np.mean(losses))
        if observed:
            seconds = time.perf_counter() - step_start
            if tracer is not None:
                self._publish_telemetry(tracer, seconds)
            if runlog is not None:
                self._publish_runlog(
                    runlog, mean_loss, seconds, rank_busy or {}
                )
        self.iteration += 1
        return mean_loss

    def _run_step_coop(self, shards, d, m, losses, rank_busy) -> None:
        """The cooperative oracle step (single process, every virtual
        rank in turn) — the reference the mp path is conformed against."""
        with obs_span("pipeline", phase="pipeline"):
            for dp, (replica, (rid, rtgt)) in enumerate(
                zip(self.replicas, shards)
            ):
                replica_start = (
                    time.perf_counter() if rank_busy is not None else 0.0
                )
                replica.zero_grad()
                microbatches = make_microbatches(rid, rtgt, m)
                losses.append(
                    replica.run_iteration(
                        microbatches, grad_scale=self.loss_scale / m
                    )
                )
                if rank_busy is not None:
                    rank_busy[dp] = time.perf_counter() - replica_start
        if d > 1:
            with obs_span("grad-allreduce", phase="grad-allreduce"):
                all_reduce_gradients(
                    [replica.parameters() for replica in self.replicas],
                    self._dp_ranks,
                    self.log,
                    average=True,
                )
        with obs_span("optimizer", phase="optimizer"):
            if self.loss_scale != 1.0:
                for replica in self.replicas:
                    for p in replica.parameters():
                        p.grad /= self.loss_scale
            if self.grad_clip_norm is not None:
                self._clip_gradients()
            for opt in self.optimizers:
                opt.step()

    def _run_step_mp(self, shards, d, losses, rank_busy) -> None:
        """One step on real processes: each replica worker runs its
        pipeline and the shared-memory gradient ring, then steps its
        Adam locally.  The parent replays the workers' replica-local
        traffic (in data-parallel order, matching the oracle's
        sequential execution) and the analytic §3.3.1 gradient-ring hop
        plan, so ``self.log`` is record-for-record identical to coop.
        """
        from .mp_workers import replay_records

        if self._workers_stale:
            self._push_worker_state()
        with obs_span("pipeline", phase="pipeline"):
            results = self._workers.step(list(shards))
            for dp, (loss, records, norm, seconds) in enumerate(results):
                losses.append(loss)
                replay_records(self.log, records)
                if rank_busy is not None:
                    rank_busy[dp] = seconds
                if dp == 0:
                    self.last_grad_norm = norm
        if d > 1:
            with obs_span("grad-allreduce", phase="grad-allreduce"):
                for i, p in enumerate(self.replicas[0].parameters()):
                    _sanitize("all_reduce", self._dp_ranks, p.data.shape,
                              p.data.dtype, f"dp.grad.{i}")
                    hops = ring_all_reduce_hops(p.data.size, 8, d)
                    for si, di, nbytes in hops:
                        self.log.add(
                            self._dp_ranks[si], self._dp_ranks[di], nbytes,
                            TrafficKind.DATA_PARALLEL, f"dp.grad.{i}",
                        )
        with obs_span("optimizer", phase="optimizer"):
            pass  # loss-scale unwind, clip and Adam ran inside the workers
        self._parent_stale = True

    def _pull_worker_state(self) -> None:
        """Refresh the parent's canonical replicas/optimizers from
        worker 0 (replicas are bit-identical across the data-parallel
        group, so one pull covers all of them)."""
        state = self._workers.get_state(0)
        for replica in self.replicas:
            for p, arr in zip(replica.parameters(), state["params"]):
                p.data[...] = arr
        for opt in self.optimizers:
            for a, arr in zip(opt._m, state["m"]):
                a[...] = arr
            for a, arr in zip(opt._v, state["v"]):
                a[...] = arr
            opt.step_count = state["step_count"]
        self._parent_stale = False

    def _push_worker_state(self) -> None:
        """Push the parent's canonical state to every worker (after a
        checkpoint restore)."""
        state = {
            "params": [p.data.copy() for p in self.replicas[0].parameters()],
            "m": [a.copy() for a in self.optimizers[0]._m],
            "v": [a.copy() for a in self.optimizers[0]._v],
            "step_count": self.optimizers[0].step_count,
        }
        self._workers.set_state(state)
        self._workers_stale = False

    def invalidate_workers(self) -> None:
        """Mark worker state stale after the parent's replicas were
        mutated externally (checkpoint restore); a no-op on coop."""
        if self._workers is not None:
            self._workers_stale = True

    def sync_from_workers(self) -> None:
        """Ensure the parent replicas hold the freshest parameters."""
        if self._workers is not None and self._parent_stale:
            self._pull_worker_state()

    def close(self) -> None:
        """Release backend resources (mp worker processes + segments)."""
        if self._workers is not None:
            self._workers.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False

    def _publish_telemetry(self, tracer, seconds: float) -> None:
        """Table-1 throughput gauges + per-GPU memory counter samples.

        Only runs under an active tracer (the untraced hot path pays a
        single ``current_tracer()`` check).  FLOPs are the eq. (3)
        closed form — the same number ``repro.verify``'s conservation
        check pins to the FlopMeter — so trainer MFU, simulator MFU,
        and the analytic model agree by construction; the *measured*
        quantity is the wall-clock iteration time.
        """
        from repro.hardware import a100_80gb
        from repro.obs.telemetry import (
            MemoryBreakdown,
            sample_memory,
            sample_throughput,
            throughput_report,
        )
        from repro.perf.memory import memory_footprint, parameters_per_rank

        report = throughput_report(
            self.config, self.parallel, seconds,
            peak_flops=a100_80gb().peak_flops,
            with_recompute=self.recompute_activations,
        )
        sample_throughput(tracer, report)
        fp = memory_footprint(
            self.config, self.parallel,
            recompute=self.recompute_activations,
        )
        sample_memory(
            tracer,
            MemoryBreakdown(parameters_per_rank(self.config, self.parallel)),
            fp.activations + fp.stage_inputs,
        )

    def _publish_runlog(self, runlog, loss: float, seconds: float,
                        rank_busy: dict[int, float]) -> None:
        """One run-log heartbeat round + iteration record.

        ``rank_busy`` carries per-data-parallel-replica pipeline self
        times (the live engine's per-rank span self-time proxy — the
        replicas are the concurrently-schedulable units here).  Only
        runs when a run logger is active; the bare hot path pays a
        single ``current_run_logger()`` check
        (``benchmarks/bench_monitor_overhead.py``; estimator and
        readings: README, "Overhead and speedup guards").
        """
        from repro.hardware import a100_80gb

        if not hasattr(self, "_runlog_flops"):
            self._runlog_flops = self.config.flops_per_iteration(
                self.parallel.global_batch_size,
                with_recompute=self.recompute_activations,
            )
            self._runlog_peak = a100_80gb().peak_flops
        world = self.parallel.world_size
        tokens = self.parallel.global_batch_size * self.config.seq_length
        runlog.heartbeat(range(world), self.iteration)
        runlog.iteration(
            self.iteration, loss, seconds,
            tokens_per_s=tokens / seconds,
            mfu=self._runlog_flops / world / seconds / self._runlog_peak,
            grad_norm=self.last_grad_norm,
            rank_busy=rank_busy,
        )

    def _clip_gradients(self) -> None:
        """Clip by the *global* gradient norm (Megatron semantics): the
        norm is taken over the full model -- all model-parallel shards,
        tied parameters counted once -- and the same scale is applied to
        every shard on every replica (replicas hold identical averaged
        gradients, so replica 0's norm is the global norm)."""
        replica = self.replicas[0]
        sq = 0.0
        for p in replica.parameters_for_norm():
            sq += float(np.sum(p.grad * p.grad))
        norm = float(np.sqrt(sq))
        self.last_grad_norm = norm
        if norm <= self.grad_clip_norm or norm == 0.0:
            return
        scale = self.grad_clip_norm / norm
        for rep in self.replicas:
            for p in rep.parameters():
                p.grad *= scale

    def evaluate(self, ids: np.ndarray, targets: np.ndarray) -> float:
        """Loss without gradient accumulation or update (replica 0)."""
        self.sync_from_workers()
        m = self.parallel.num_microbatches
        d = self.parallel.data_parallel_size
        per = ids.shape[0] // d
        replica = self.replicas[0]
        replica.zero_grad()
        microbatches = make_microbatches(ids[:per], targets[:per], m)
        loss = replica.run_iteration(microbatches, training=False, grad_scale=0.0)
        replica.zero_grad()
        return loss

    def gather_state_dict(self) -> dict[str, np.ndarray]:
        """Replica 0's full serial-layout weights."""
        self.sync_from_workers()
        return self.replicas[0].gather_state_dict()

    def parameters_per_rank(self) -> int:
        """Trainable parameters held by one GPU (model-parallel shard)."""
        total = sum(p.size for p in self.replicas[0].parameters())
        return total // max(1, 1)  # replica already holds only its shard
