"""The benchmark workloads, their correctness gates and metrics.

Each workload is a function ``(seed, seconds, trace, import_s) ->
Outcome``.  Untraced (``trace=False``) it sets up five times, measures
for ``seconds`` and reports the end-to-end metrics.  Traced, it feeds the
same inputs to two identical trainers or engines, one with every layer
wrapped, checks that both give the same outputs, and reports the
per-layer metrics and the tracing overhead.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
import multiprocessing
import os
import time
from dataclasses import dataclass, field
from multiprocessing import resource_tracker

import numpy as np

from repro.comm.shm_ring import leaked_dev_shm_segments
from repro.comm.traffic import TrafficKind
from repro.config import GPTConfig, ParallelConfig
from repro.nn import Adam, GPTModel
from repro.obs.tracer import trace as obs_trace
from repro.parallel import PTDTrainer
from repro.serve.decode import cached_generate
from repro.serve.engine import ServeEngine
from repro.serve.kv_cache import PagedKVCache
from repro.serve.traffic import TraceRequest

from driver import drive, fastest_repeat_seconds, median, tail
from tracer import KERNELS, Tracer, install_repro

SETUP_REPEATS = 5

# -- workload definitions -----------------------------------------------------

TRAIN = {
    # The paper's full PTD-P composition in one process (coop backend).
    "train-ptd": dict(
        model=GPTConfig(num_layers=4, hidden_size=128, num_attention_heads=8,
                        vocab_size=512, seq_length=64),
        parallel=ParallelConfig(pipeline_parallel_size=2, tensor_parallel_size=2,
                                data_parallel_size=2, microbatch_size=2,
                                global_batch_size=16, num_model_chunks=2),
        schedule="interleaved", backend="coop"),
    # One replica process per core, gradient ring over shared memory.
    "train-dp-mp": dict(
        model=GPTConfig(num_layers=4, hidden_size=128, num_attention_heads=8,
                        vocab_size=512, seq_length=128),
        parallel=ParallelConfig(data_parallel_size=2, microbatch_size=2,
                                global_batch_size=8),
        schedule="1f1b", backend="mp"),
}
TRAIN_LR = 1e-3
TRAIN_BATCHES = 4  # distinct global batches, cycled
LOSS_RTOL = 1e-9  # PTD-P equals serial training up to summation order

SERVE_MODEL = GPTConfig(num_layers=4, hidden_size=128, num_attention_heads=8,
                        vocab_size=512, seq_length=256)
BLOCK_SIZE = 16
MAX_QUEUE = 64  # production config: bounded queue, checksummed cache

# serve-chat: open loop at a fixed rate, pool large enough never to preempt.
CHAT_RATE = 1.5  # requests per second
CHAT_PROMPT = (16, 64)
CHAT_NEW = (64, 192)
CHAT_TOP_K = 40
CHAT_BLOCKS = 512
# SLO limits, fixed from measurements of the unmodified engine.
SLO_TTFT_S = 0.050
SLO_ITL_S = 0.010

# serve-summarize: offline batches, pool smaller than the working set.
# Two distinct batches alternate, each repeated at least twice.
SUMM_BATCH = 24
SUMM_DISTINCT = 2
SUMM_MIN_REPEATS = 2
SUMM_PROMPT = (128, 224)
SUMM_NEW = (8, 32)
SUMM_BLOCKS = 64

ORACLE_SAMPLE = 4  # completed streams re-generated by the oracle


@dataclass
class Outcome:
    attempted: int
    failed: int
    metrics: dict[str, tuple[float, str]]
    lines: list[str] = field(default_factory=list)
    gates: list[tuple[str, bool, str]] = field(default_factory=list)
    tracer: Tracer | None = None  # the traced pass's spans

    @property
    def correct(self) -> bool:
        return all(ok for _, ok, _ in self.gates)

    def gate(self, name: str, ok: bool, detail: str = "") -> None:
        self.gates.append((name, bool(ok), detail))

    def say(self, name: str, value: float, unit: str, n: int | str) -> None:
        self.lines.append(f"{name:<28} {value:>14.6g} {unit:<8} n={n}")


# -- process measurements -----------------------------------------------------

def _proc_threads(pid: int) -> int | None:
    try:
        return len(os.listdir(f"/proc/{pid}/task"))
    except FileNotFoundError:
        return None


def check_single_threaded(out: Outcome) -> None:
    """Every process of the workload runs exactly one thread, so BLAS
    took the one-thread setting (it starts its pool on the first GEMM)."""
    pids = [os.getpid()] + [p.pid for p in multiprocessing.active_children()]
    counts = {pid: _proc_threads(pid) for pid in pids}
    if None in counts.values():
        out.lines.append("threads: /proc unavailable, BLAS pinning unverified")
        return
    out.gate("blas-threads-pinned", all(c == 1 for c in counts.values()),
             f"threads per process {sorted(counts.values())}")


def _vm_hwm_mb(pid: int) -> float:
    with open(f"/proc/{pid}/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def children_peak_mb() -> float:
    """Peak resident memory of the live worker processes, summed."""
    return sum(_vm_hwm_mb(p.pid) for p in multiprocessing.active_children())


def own_peak_mb() -> float:
    return _vm_hwm_mb(os.getpid())


def stop_resource_tracker() -> None:
    """The mp backend's shared-memory segments start Python's resource
    tracker process; stop it and wait for it, so nothing outlives the run."""
    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def own_shm_leaks() -> list[str]:
    mine = f"_{os.getpid()}_"
    return [s for s in leaked_dev_shm_segments() if mine in s]


# -- training -----------------------------------------------------------------

def _train_batches(spec, seed: int):
    cfg, par = spec["model"], spec["parallel"]
    rng = np.random.default_rng(seed)
    batches = []
    for _ in range(TRAIN_BATCHES):
        tokens = rng.integers(0, cfg.vocab_size,
                              size=(par.global_batch_size, cfg.seq_length + 1))
        batches.append((tokens[:, :-1], tokens[:, 1:]))
    return batches


def _build_trainer(spec, batches):
    """Trainer build plus one warm-up step; returns (trainer, loss)."""
    trainer = PTDTrainer(spec["model"], spec["parallel"], schedule=spec["schedule"],
                         seed=0, lr=TRAIN_LR, backend=spec["backend"])
    loss = trainer.train_step(*batches[0])
    return trainer, loss


def _serial_losses(spec, batches, steps: int) -> list[float]:
    """Single-rank training on the same batches: the oracle PTD-P equals."""
    model = GPTModel(spec["model"], seed=0)
    opt = Adam(model.parameters(), lr=TRAIN_LR)
    out = []
    for i in range(steps):
        ids, targets = batches[i % len(batches)]
        model.zero_grad()
        loss, caches = model.loss(ids, targets)
        model.loss_backward(caches)
        opt.step()
        out.append(loss)
    return out


def _run_steps(trainer, batches, seconds: float):
    """Timed train steps on the batches after the warm-up one, cycled,
    until ``seconds`` have passed."""
    times, losses = [], []
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        ids, targets = batches[(len(times) + 1) % len(batches)]
        t0 = time.perf_counter()
        losses.append(trainer.train_step(ids, targets))
        times.append(time.perf_counter() - t0)
    return times, losses


def _train_gates(out: Outcome, spec, batches, warm_loss, losses) -> None:
    all_losses = [warm_loss, *losses]
    out.gate("loss-finite", all(math.isfinite(x) for x in all_losses))
    want = _serial_losses(spec, batches, 2)
    ok = np.allclose(all_losses[:2], want, rtol=LOSS_RTOL, atol=0.0)
    out.gate("loss-matches-serial", ok,
             f"{all_losses[:2]} vs serial {want} (rtol {LOSS_RTOL:g})")


def train(name: str, seed: int, seconds: float, trace: bool,
          import_s: float) -> Outcome:
    spec = TRAIN[name]
    batches = _train_batches(spec, seed)
    tokens = spec["parallel"].global_batch_size * spec["model"].seq_length
    if trace:
        return _train_traced(spec, batches, tokens, seconds)
    builds, trainer = [], None
    for _ in range(SETUP_REPEATS):
        if trainer is not None:
            trainer.close()
        t0 = time.perf_counter()
        trainer, warm_loss = _build_trainer(spec, batches)
        builds.append(time.perf_counter() - t0)
    out = Outcome(0, 0, {})
    check_single_threaded(out)
    try:
        times, losses = _run_steps(trainer, batches, seconds)
        peak = own_peak_mb() + children_peak_mb()
    finally:
        trainer.close()
    out.attempted = len(losses)
    out.failed = sum(not math.isfinite(x) for x in losses)
    _train_gates(out, spec, batches, warm_loss, losses)
    if spec["backend"] == "mp":
        leaks = own_shm_leaks()
        out.gate("no-leaked-shm", not leaks, ", ".join(leaks))
    # Step i trains on batch (i + 1) % TRAIN_BATCHES: the repeated unit.
    keys = [(i + 1) % len(batches) for i in range(len(times))]
    rate = tokens * len(set(keys)) / fastest_repeat_seconds(zip(keys, times))
    out.metrics = e2e(out, import_s + median(builds), peak, rate, len(times))
    out.say("train_tokens_per_s_p50", tokens / median(times), "tok/s", len(times))
    latency_lines(out, "train_step_s", times)
    return out


def _train_traced(spec, batches, tokens, seconds) -> Outcome:
    """Two identical trainers step in turn on the same batches, the
    second with every layer wrapped, so drift hits both alike."""
    out = Outcome(0, 0, {})
    trainer_a, warm_a = _build_trainer(spec, batches)
    trainer, warm_b = _build_trainer(spec, batches)
    tracer = Tracer()
    log_start = len(trainer.log.records)
    times_a, losses_a, times_b, losses_b = [], [], [], []
    phase_spans, bad, wall_ns = [], [], 0
    try:
        start = time.perf_counter()
        while not times_a or time.perf_counter() - start < seconds:
            ids, targets = batches[(len(times_a) + 1) % len(batches)]
            t0 = time.perf_counter()
            losses_a.append(trainer_a.train_step(ids, targets))
            times_a.append(time.perf_counter() - t0)
            install_repro(tracer)
            try:
                with obs_trace() as phases:
                    t0 = tracer.clock()
                    losses_b.append(trainer.train_step(ids, targets))
                    dt = tracer.clock() - t0
            finally:
                bad += tracer.uninstall()
            wall_ns += dt
            times_b.append(dt / 1e9)
            phase_spans += phases.spans
        records = trainer.log.records[log_start:]
    finally:
        trainer_a.close()
        trainer.close()
    out.gate("originals-restored", not bad, ", ".join(bad))
    out.gate("traced-losses-equal", [warm_a, *losses_a] == [warm_b, *losses_b])
    out.attempted = len(losses_a) + len(losses_b)
    out.failed = sum(not math.isfinite(x) for x in losses_a + losses_b)
    _train_gates(out, spec, batches, warm_a, losses_a)
    steps = len(times_b)
    values = layer_values(tracer, wall_ns, steps)
    for label, phase in (("pipeline", "pipeline"),
                         ("grad_allreduce", "grad-allreduce"),
                         ("optimizer", "optimizer")):
        values[f"parallel.{label}.s"] = math.fsum(
            s.duration for s in phase_spans if s.phase == phase) / steps
    for kind in (TrafficKind.TENSOR_PARALLEL, TrafficKind.PIPELINE_P2P,
                 TrafficKind.DATA_PARALLEL):
        values[f"comm.bytes.{kind.value}"] = sum(
            r.nbytes for r in records if r.kind is kind) / steps
    if tracer.counters.get("mp.steps"):
        c = tracer.counters
        busy_max = c["mp.busy_max_s"] / c["mp.steps"]
        values["mp.worker_busy_s"] = busy_max
        values["mp.ipc_wait_s"] = tracer.self_ns["mp.step"] / 1e9 / steps - busy_max
        values["mp.imbalance"] = c["mp.busy_max_s"] / c["mp.busy_min_s"] - 1
    values["trace.overhead"] = median(times_b) / median(times_a) - 1
    out.metrics = per_layer(values)
    out.lines.append(f"traced {steps} steps; spans={len(tracer.span_start)}")
    out.tracer = tracer
    return out


# -- serving ------------------------------------------------------------------

def _stratified(rng, n: int, bounds: tuple[int, int]) -> np.ndarray:
    """``n`` lengths evenly spread over ``bounds`` in a seeded order, so
    every seed asks for the same total work."""
    lo, hi = bounds
    return rng.permutation(np.linspace(lo, hi, n).round().astype(int))


def _requests(rng, n: int, prompt, new, prefix: str, temperature: float,
              top_k, order_rng=None) -> list[TraceRequest]:
    """Requests with seeded tokens; their lengths are shuffled by
    ``order_rng`` (default ``rng``)."""
    order = rng if order_rng is None else order_rng
    plens, news = _stratified(order, n, prompt), _stratified(order, n, new)
    return [
        TraceRequest(
            request_id=f"{prefix}{i:04d}",
            arrival_step=0,
            prompt=tuple(int(t) for t in rng.integers(0, SERVE_MODEL.vocab_size,
                                                      size=int(plens[i]))),
            max_new_tokens=int(news[i]),
            temperature=temperature,
            top_k=top_k,
            seed=int(rng.integers(0, 2**31)),
        )
        for i in range(n)
    ]


def _build_engine(blocks: int):
    """Model, checksummed cache and bounded-queue engine, warmed by one
    request run to completion."""
    model = GPTModel(SERVE_MODEL, seed=0)
    cache = PagedKVCache.for_model(model, num_blocks=blocks,
                                   block_size=BLOCK_SIZE, checksums=True)
    engine = ServeEngine(model, cache, max_queue=MAX_QUEUE)
    engine.submit(TraceRequest("warmup", 0, tuple(range(32)), 16,
                               temperature=1.0, top_k=CHAT_TOP_K))
    while engine.waiting or engine.running:
        engine.tick()
    cache.assert_empty()
    return engine


def _chat_schedule(seed: int, seconds: float):
    """Open-loop arrivals at ``CHAT_RATE`` for ``seconds``: one request
    due in each ``1/CHAT_RATE`` slot, at a uniform offset within it.
    Jittered rather than Poisson: with a few dozen requests per run,
    Poisson bursts move latency by 25-60% from seed to seed, more than
    any regression bound could absorb."""
    rng = np.random.default_rng(seed)
    n = max(1, round(CHAT_RATE * seconds))
    due = ((np.arange(n) + rng.uniform(0.0, 1.0, size=n)) / CHAT_RATE).tolist()
    return _requests(rng, n, CHAT_PROMPT, CHAT_NEW, "chat-", 1.0, CHAT_TOP_K), due


def _rounds(kind: str, seed: int, seconds: float):
    """The workload's traffic as rounds of ``(key, requests, due times)``;
    rounds with the same key repeat the same requests under new ids.
    Chat is one open-loop schedule of ``seconds``.  Summarize cycles
    through ``SUMM_DISTINCT`` seeded offline batches, all due at t=0,
    and starts another cycle while less than ``seconds`` have passed."""
    if kind == "serve-chat":
        yield (0, *_chat_schedule(seed, seconds))
        return
    # The length order decides which requests preempt which, so it comes
    # from the batch index, not the seed: seeded orders moved the
    # preemptions, and the recompute they cost, by +-7% from seed to seed.
    rng = np.random.default_rng(seed)
    distinct = [_requests(rng, SUMM_BATCH, SUMM_PROMPT, SUMM_NEW, f"sum{b}-",
                          0.0, None, order_rng=np.random.default_rng(b))
                for b in range(SUMM_DISTINCT)]
    start = time.perf_counter()
    for r in itertools.count():
        key, repeat = r % SUMM_DISTINCT, r // SUMM_DISTINCT
        if (key == 0 and repeat >= SUMM_MIN_REPEATS
                and time.perf_counter() - start >= seconds):
            return
        yield key, [dataclasses.replace(req, request_id=f"{req.request_id}r{repeat}")
                    for req in distinct[key]], [0.0] * SUMM_BATCH


def _serve_gates(out: Outcome, engine, results, seed: int) -> None:
    records = [rec for _, res in results for rec in res.records]
    outcomes = {rec.outcome for rec in records}
    out.gate("typed-outcomes",
             all(rec.outcome in ("completed", "rejected", "timeout",
                                 "cancelled", "failed") for rec in records),
             f"outcomes {sorted(map(str, outcomes))}")
    try:
        engine.cache.assert_empty()
        out.gate("kv-cache-empty", True)
    except AssertionError as exc:
        out.gate("kv-cache-empty", False, str(exc))
    done = {rec.request_id for rec in records if rec.outcome == "completed"}
    by_id = {r.request_id: r for reqs, _ in results for r in reqs}
    rng = np.random.default_rng([seed, 1])
    sample = rng.choice(sorted(done), size=min(ORACLE_SAMPLE, len(done)),
                        replace=False)
    bad = []
    for rid in sample:
        req = by_id[rid]
        want = cached_generate(engine.model, np.array(req.prompt),
                               req.max_new_tokens, temperature=req.temperature,
                               top_k=req.top_k,
                               rng=np.random.default_rng(req.seed))
        if not np.array_equal(engine.outputs[rid], want):
            bad.append(rid)
    out.gate("streams-match-oracle", not bad and len(sample) > 0,
             f"{len(sample)} sampled, mismatched {bad}")


def _completed_tokens(res) -> int:
    return sum(rec.metrics.prompt_tokens + rec.metrics.generated_tokens
               for rec in res.completed())


def _serve_numbers(results):
    """Pooled figures over every round of a pass."""
    ticks = [t for _, res in results for t in res.tick_seconds]
    completed = [rec for _, res in results for rec in res.completed()]
    tokens = sum(_completed_tokens(res) for _, res in results)
    generated = sum(rec.metrics.generated_tokens for rec in completed)
    busy = math.fsum(res.busy_seconds for _, res in results)
    makespan = math.fsum(res.makespan for _, res in results)
    return ticks, completed, tokens, generated, busy, makespan


def serve(kind: str, seed: int, seconds: float, trace: bool,
          import_s: float) -> Outcome:
    blocks = CHAT_BLOCKS if kind == "serve-chat" else SUMM_BLOCKS
    if trace:
        return _serve_traced(kind, blocks, seed, seconds)
    builds = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        engine = _build_engine(blocks)
        builds.append(time.perf_counter() - t0)
    out = Outcome(0, 0, {})
    check_single_threaded(out)
    keys, results = [], []
    for key, reqs, due in _rounds(kind, seed, seconds):
        keys.append(key)
        results.append((reqs, drive(engine, reqs, due)))
    peak = own_peak_mb()
    records = [rec for _, res in results for rec in res.records]
    out.attempted = len(records)
    out.failed = sum(rec.outcome != "completed" for rec in records)
    _serve_gates(out, engine, results, seed)
    ticks, completed, tokens, generated, busy, makespan = _serve_numbers(results)
    if kind == "serve-chat":
        # Chat idles between arrivals, so its rate is per busy second.
        rate, n = tokens / busy, len(completed)
    else:
        rate = _summarize_rate(out, keys, results)
        n = f"{len(results)} batches"
    out.metrics = e2e(out, import_s + median(builds), peak, rate, n)
    # vLLM's normalized latency: due-to-finish seconds per output token.
    latency_lines(out, "latency_s", [
        (rec.token_times[-1] - rec.due) / rec.metrics.generated_tokens
        for rec in completed])
    latency_lines(out, "tick_s", ticks)
    if kind == "serve-chat":
        _chat_lines(out, results[0][1], completed)
        out.say("engine_busy_share", busy / results[0][1].makespan, "share", 1)
    else:
        out.say("batch_tokens_per_s_mean", tokens / makespan, "tok/s",
                f"{len(results)} batches")
    out.say("preemptions", sum(rec.metrics.preemptions for rec in completed),
            "count", len(completed))
    return out


def _summarize_rate(out: Outcome, keys, results) -> float:
    """Tokens of the distinct batches over their makespans (submission
    to last finish), with each engine tick at its fastest repeat.  The
    engine schedules on its step clock, so every repeat of a batch runs
    the same ticks in the same order; a gate checks the tick counts."""
    units, tokens, tick_counts = [], {}, {}
    for key, (_, res) in zip(keys, results):
        ends = res.tick_end
        # A tick's unit runs from the previous tick's end, so the units
        # of one repeat add up to its makespan.
        units += [((key, i), b - a) for i, (a, b) in enumerate(zip([0.0, *ends], ends))]
        tokens[key] = _completed_tokens(res)
        tick_counts.setdefault(key, set()).add(len(ends))
    out.gate("repeats-tick-alike",
             all(len(c) == 1 for c in tick_counts.values()),
             f"ticks per batch {sorted(map(sorted, tick_counts.values()))}")
    return sum(tokens.values()) / fastest_repeat_seconds(units)


def _chat_lines(out: Outcome, res, completed) -> None:
    ttft = [rec.ttft for rec in completed]
    gaps = [g for rec in completed for g in rec.gaps()]
    sent = len(res.records)
    met = sum(1 for rec in completed
              if rec.ttft <= SLO_TTFT_S and np.mean(rec.gaps()) <= SLO_ITL_S)
    out.say("ttft_s_p50", median(ttft), "s", len(ttft))
    value, pct = tail(ttft)
    out.say(f"ttft_s_tail (p{pct:.4g})", value, "s", len(ttft))
    out.say("itl_s_p50", median(gaps), "s", len(gaps))
    value, pct = tail(gaps)
    out.say(f"itl_s_tail (p{pct:.4g})", value, "s", len(gaps))
    out.say(f"slo_attainment (ttft<={SLO_TTFT_S}s, itl<={SLO_ITL_S}s)",
            met / sent, "share", sent)
    value, pct = tail(res.lags())
    out.say(f"driver.lag_s_tail (p{pct:.4g})", value, "s", sent)


def _serve_traced(kind: str, blocks: int, seed: int, seconds: float) -> Outcome:
    """Each round runs untraced on one engine, then traced on another.
    Chat has one round, its schedule half as long as an untraced run's;
    summarize alternates batches so drift hits both passes alike."""
    out = Outcome(0, 0, {})
    engine_a, engine = _build_engine(blocks), _build_engine(blocks)
    tracer = Tracer()

    def idle(seconds):
        tracer.call("driver.idle", time.sleep, (seconds,), {})

    results_a, results, bad, wall_ns = [], [], [], 0
    for _, reqs, due in _rounds(kind, seed,
                                seconds / 2 if kind == "serve-chat" else seconds):
        results_a.append((reqs, drive(engine_a, reqs, due)))
        install_repro(tracer)
        try:
            t0 = tracer.clock()
            results.append((reqs, drive(engine, reqs, due, sleep=idle)))
            wall_ns += tracer.clock() - t0
        finally:
            bad += tracer.uninstall()
    out.gate("originals-restored", not bad, ", ".join(bad))
    same = set(engine_a.outputs) == set(engine.outputs) and all(
        np.array_equal(engine_a.outputs[k], engine.outputs[k])
        for k in engine_a.outputs)
    out.gate("traced-streams-equal", same, f"{len(engine.outputs)} streams")
    out.gate("traced-kv-cache-empty", engine.cache.live_blocks == 0)
    records = [rec for _, res in results_a + results for rec in res.records]
    out.attempted = len(records)
    out.failed = sum(rec.outcome != "completed" for rec in records)
    _serve_gates(out, engine_a, results_a, seed)
    ticks, completed, tokens, generated, busy, makespan = _serve_numbers(results)
    _, _, _, generated_a, busy_a, _ = _serve_numbers(results_a)
    values = layer_values(tracer, wall_ns, generated)
    c = tracer.counters
    n_ticks = c.get("serve.ticks", 0)
    values["serve.tick.s"] = busy / len(ticks)
    values["serve.batch_size.mean"] = generated / n_ticks
    values["kv.occupancy.mean"] = c.get("kv.occupancy.sum", 0) / n_ticks
    values["serve.queue_wait_s"] = float(np.mean([
        res.tick_start_of(rec.metrics.admit_step) - rec.due
        for _, res in results for rec in res.completed()]))
    prompt = sum(rec.metrics.prompt_tokens for rec in completed)
    values["serve.prefill_useful_ratio"] = prompt / c["serve.prefill_tokens"]
    values["serve.preemptions"] = sum(rec.metrics.preemptions for rec in completed)
    values["trace.overhead"] = (busy / generated) / (busy_a / generated_a) - 1
    out.metrics = per_layer(values)
    out.lines.append(f"traced {generated} tokens, {n_ticks} ticks; "
                     f"spans={len(tracer.span_start)}")
    if kind == "serve-chat":
        lags = [lag for _, res in results for lag in res.lags()]
        value, pct = tail(lags)
        out.say(f"driver.lag_s_tail (p{pct:.4g})", value, "s", len(lags))
        out.say("driver.idle.share", tracer.self_ns.get("driver.idle", 0) / wall_ns,
                "share", tracer.calls.get("driver.idle", 0))
    out.tracer = tracer
    return out


# -- metric catalogues --------------------------------------------------------

def e2e(out: Outcome, setup_s: float, peak_mb: float, tokens_per_s: float,
        n: int | str) -> dict[str, tuple[float, str]]:
    """The end-to-end metrics of ``BENCHMARK.json``, also printed with
    their sample counts (``n`` for ``tokens_per_s``)."""
    out.say("setup_s", setup_s, "s", f"{SETUP_REPEATS} imports, {SETUP_REPEATS} builds")
    out.say("peak_rss_mb", peak_mb, "MB", 1)
    out.say("tokens_per_s", tokens_per_s, "tok/s", n)
    return {
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_mb, "MB"),
        "tokens_per_s": (tokens_per_s, "tok/s"),
    }


def latency_lines(out: Outcome, name: str, values: list[float]) -> None:
    """Median and tail of a timing, printed but not bounded: a
    neighbour's burst moves them by more than any allowed bound."""
    value, pct = tail(values)
    out.say(f"{name}_p50", median(values), "s", len(values))
    out.say(f"{name}_tail (p{pct:.4g})", value, "s", len(values))


#: Layers whose self time, call count and share are reported.
SPAN_LAYERS = tuple(f"nn.{k}" for k in KERNELS) + (
    "nn.adam", "nn.forward_step", "comm.all_reduce", "comm.send", "mp.step",
    "serve.tick", "serve.prefill", "serve.decode", "serve.sample",
    "kv.gather", "kv.append", "kv.crc")

#: Single-valued layer metrics and their units.
LAYER_SCALARS = {
    "nn.linear.gflops_per_s": "GFLOP/s",
    "comm.bytes.tp": "B/op",
    "comm.bytes.pp": "B/op",
    "comm.bytes.dp": "B/op",
    "parallel.pipeline.s": "s/op",
    "parallel.grad_allreduce.s": "s/op",
    "parallel.optimizer.s": "s/op",
    "mp.worker_busy_s": "s/op",
    "mp.ipc_wait_s": "s/op",
    "mp.imbalance": "share",
    "serve.tick.s": "s",
    "serve.batch_size.mean": "count",
    "serve.queue_wait_s": "s",
    "serve.preemptions": "count",
    "serve.prefill_useful_ratio": "share",
    "kv.gather.bytes": "B/op",
    "kv.occupancy.mean": "share",
    "trace.overhead": "share",
    "trace.unattributed.share": "share",
    "trace.wall_s": "s",
}


def layer_values(tracer: Tracer, wall_ns: int, ops: int) -> dict[str, float]:
    """Self time and calls per op (train step or generated token) and
    share of the traced window's wall time, for every span layer."""
    values = {name: 0.0 for name in LAYER_SCALARS}
    for layer in SPAN_LAYERS:
        self_ns = tracer.self_ns.get(layer, 0)
        values[f"{layer}.self_s"] = self_ns / 1e9 / ops
        values[f"{layer}.calls"] = tracer.calls.get(layer, 0) / ops
        values[f"{layer}.share"] = self_ns / wall_ns
    linear_ns = tracer.self_ns.get("nn.linear", 0)
    if linear_ns:
        values["nn.linear.gflops_per_s"] = tracer.counters["nn.linear.flops"] / linear_ns
    values["kv.gather.bytes"] = tracer.counters.get("kv.gather.bytes", 0) / ops
    values["trace.unattributed.share"] = (wall_ns - tracer.total_self_ns()) / wall_ns
    values["trace.wall_s"] = wall_ns / 1e9
    return values


def per_layer_units() -> dict[str, str]:
    units = {}
    for layer in SPAN_LAYERS:
        units[f"{layer}.self_s"] = "s/op"
        units[f"{layer}.calls"] = "1/op"
        units[f"{layer}.share"] = "share"
    units.update(LAYER_SCALARS)
    return units


def per_layer(values: dict[str, float]) -> dict[str, tuple[float, str]]:
    units = per_layer_units()
    return {name: (values[name], unit) for name, unit in units.items()}


WORKLOADS = {
    "train-ptd": lambda *a: train("train-ptd", *a),
    "train-dp-mp": lambda *a: train("train-dp-mp", *a),
    "serve-chat": lambda *a: serve("serve-chat", *a),
    "serve-summarize": lambda *a: serve("serve-summarize", *a),
}
