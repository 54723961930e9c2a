"""Serving conformance: every fast decode path vs the trusted oracle.

The full-recompute :func:`repro.nn.generate.generate` is the slow,
training-numerics-consistent reference.  This section pins the three
fast paths of :mod:`repro.serve` to it:

- **cached decode** (`cached_generate`, paged KV cache + incremental
  ``forward_step``): token streams must be ``np.array_equal`` to the
  oracle across a seeded grid of sampling modes and prompt lengths
  near/over the ``seq_length`` sliding-window boundary -- plus a
  zero-leak check on the block pool after every run.
- **continuous batching** (`ServeEngine` on a Poisson trace sized to
  force preemption): every request's final stream must equal its
  single-request oracle regardless of interleaving/preemption, and a
  second run of the same trace must replay the first bit-exactly
  (streams, metrics, event sequence on the virtual clock).
- **tensor-parallel decode** (`tp_generate` over the coop oracle and,
  in full mode, the real-process mp backend): token streams equal
  single-rank decode record-for-record.
"""

from __future__ import annotations

import numpy as np

from repro.config import tiny_test_model
from repro.nn.generate import generate
from repro.nn.transformer import GPTModel

from .differential import replay_failures, run_engine, stream_failures


def _grid(fast: bool, seed: int):
    """(prompt_len, max_new, temperature, top_k) differential grid.

    seq_length is 8 for the tiny model: lengths 7/8 sit at the
    sliding-window boundary, 10 starts beyond it.
    """
    points = [
        (3, 4, 0.0, None),   # greedy, well inside the window
        (7, 6, 0.0, None),   # greedy, crosses the boundary mid-decode
        (8, 5, 1.0, 4),      # top-k sampling, starts exactly at window
        (10, 6, 0.8, None),  # temperature sampling, prompt over window
    ]
    if not fast:
        points += [
            (1, 8, 0.0, None),   # minimal prompt
            (5, 7, 1.0, 1),      # top_k=1 (greedy-by-sampling)
            (6, 9, 1.3, 8),
            (12, 8, 0.0, None),  # long prompt, long decode
        ]
    return points


def _check_cached_decode(fast: bool, seed: int) -> list[str]:
    from repro.serve import cached_generate

    config = tiny_test_model()
    model = GPTModel(config, seed=seed)
    prompt_rng = np.random.default_rng(seed + 1)
    failures = []
    for block_size in (1, 3) if not fast else (3,):
        for pl, mn, temp, top_k in _grid(fast, seed):
            prompt = prompt_rng.integers(0, config.vocab_size, size=pl)
            oracle = generate(
                model, prompt, mn, temperature=temp, top_k=top_k,
                rng=np.random.default_rng(seed),
            )
            cached = cached_generate(
                model, prompt, mn, temperature=temp, top_k=top_k,
                rng=np.random.default_rng(seed), block_size=block_size,
            )
            if not np.array_equal(oracle, cached):
                failures.append(
                    f"cached decode diverged from oracle at prompt_len={pl} "
                    f"max_new={mn} temperature={temp} top_k={top_k} "
                    f"block_size={block_size}: oracle={oracle.tolist()} "
                    f"cached={cached.tolist()}"
                )
        # Stop-token path: cached decode must stop where the oracle stops.
        prompt = prompt_rng.integers(0, config.vocab_size, size=4)
        probe = generate(model, prompt, 6, temperature=0.0)
        stop = {int(probe[len(prompt) + 1])}
        oracle = generate(model, prompt, 6, temperature=0.0, stop_ids=stop)
        cached = cached_generate(
            model, prompt, 6, temperature=0.0, stop_ids=stop,
            block_size=block_size,
        )
        if not np.array_equal(oracle, cached):
            failures.append(
                f"cached decode with stop_ids diverged: "
                f"oracle={oracle.tolist()} cached={cached.tolist()}"
            )
    return failures


def _check_engine(fast: bool, seed: int) -> list[str]:
    from repro.serve import poisson_trace

    config = tiny_test_model()
    model = GPTModel(config, seed=seed)
    n = 6 if fast else 12
    trace = poisson_trace(
        n, 0.7, vocab_size=config.vocab_size, seed=seed + 2,
        temperature=1.0, top_k=5,
    )

    def once():
        # A 4-block pool is deliberately scarce: the trace must preempt.
        run = run_engine(model, trace, num_blocks=4, block_size=3)
        run[0].cache.assert_empty()
        return run

    # The second run of the same trace is the deterministic replay.
    first, second = once(), once()
    engine, report, _ = first
    failures = []
    if sum(r.preemptions for r in report.requests) == 0:
        failures.append(
            "scarce-capacity trace triggered no preemption -- the "
            "preemption path went unexercised"
        )
    failures += stream_failures(model, trace, engine.outputs)
    return failures + replay_failures(first, second)


def _check_tp(fast: bool, seed: int) -> list[str]:
    from repro.serve import tp_generate

    config = tiny_test_model()
    model = GPTModel(config, seed=seed)
    prompt_rng = np.random.default_rng(seed + 3)
    failures = []
    cases = [(3, 5, 0.0, None), (6, 6, 1.0, 4)]
    if not fast:
        cases.append((10, 6, 0.0, None))  # over-window TP decode
    for pl, mn, temp, top_k in cases:
        prompt = prompt_rng.integers(0, config.vocab_size, size=pl)
        single = generate(
            model, prompt, mn, temperature=temp, top_k=top_k,
            rng=np.random.default_rng(seed),
        )
        for world in (2, 4):
            tp = tp_generate(
                config, prompt, mn, world=world, seed=seed,
                temperature=temp, top_k=top_k,
                rng=np.random.default_rng(seed),
            )
            if not np.array_equal(single, tp):
                failures.append(
                    f"tp decode (t={world}, coop) != single-rank at "
                    f"prompt_len={pl} max_new={mn} temperature={temp} "
                    f"top_k={top_k}: single={single.tolist()} "
                    f"tp={tp.tolist()}"
                )
    if not fast:
        # One real-process case bounds the spawn cost while still
        # proving backend-invariance of the decoded stream.
        prompt = prompt_rng.integers(0, config.vocab_size, size=4)
        single = generate(model, prompt, 4, temperature=0.0)
        tp = tp_generate(
            config, prompt, 4, world=2, seed=seed, backend="mp",
            temperature=0.0,
        )
        if not np.array_equal(single, tp):
            failures.append(
                f"tp decode (t=2, mp) != single-rank: "
                f"single={single.tolist()} tp={tp.tolist()}"
            )
    return failures


def run_serve_checks(
    fast: bool = False, seed: int = 0
) -> list[tuple[str, list[str]]]:
    """Every serving conformance check; ``(name, failures)`` per check."""
    return [
        ("cached-decode-oracle-grid", _check_cached_decode(fast, seed)),
        ("continuous-batching", _check_engine(fast, seed)),
        ("tensor-parallel-decode", _check_tp(fast, seed)),
    ]
