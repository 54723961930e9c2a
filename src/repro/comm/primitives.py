"""Collective and point-to-point primitives over virtual ranks.

These are the NCCL substitutes: each primitive takes the per-rank
buffers of one process group (a sequence of numpy arrays, index i
belonging to global rank ``ranks[i]``), really computes the collective
with the standard ring algorithm, and logs every hop's bytes to a
:class:`~repro.comm.traffic.TrafficLog`.

Because the parallel-training engine is single-process and synchronous
(see DESIGN.md), collectives are invoked once per group rather than once
per rank; the data movement and byte accounting are identical to the
per-rank formulation.

Byte-volume identities implemented (and tested against) §3.3.1/§3.2:

- ring all-reduce moves ``2 (k-1)/k * size`` bytes per rank,
- ring all-gather / reduce-scatter move ``(k-1)/k * size`` per rank,
- p2p send moves ``size``.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.obs.tracer import span as _obs_span
from repro.verify.sanitizer import record_collective as _sanitize

from .traffic import TrafficKind, TrafficLog


def _comm_span(name: str, ranks: Sequence[int], kind: TrafficKind, tag: str):
    """One span per collective, on the group-leader rank's track.

    Bytes are attached by ``TrafficLog.add``, which reports every
    logged hop to each active tracer (the observer-stack contract in
    :mod:`repro.obs.tracer`); a tracer credits it to its innermost open
    span -- i.e. exactly this one, so span byte totals equal the log's
    ground truth.  When no tracer is active this is a no-op context
    manager.
    """
    return _obs_span(
        name,
        phase=f"comm.{kind.value}",
        rank=ranks[0] if len(ranks) else 0,
        group=len(ranks),
        tag=tag,
    )


def _check_ranks(ranks: Sequence[int]) -> None:
    """The group checks every collective shares: non-empty, no dups."""
    if len(ranks) == 0:
        raise ValueError("empty process group")
    if len(set(ranks)) != len(ranks):
        raise ValueError(f"duplicate ranks in group: {ranks}")


def _check_group(buffers: Sequence[np.ndarray], ranks: Sequence[int]) -> None:
    """Group check for same-shape collectives (all_reduce/reduce_scatter):
    one buffer per rank, identical shape and dtype — validated up front
    with per-buffer diagnostics, the same contract
    :func:`_check_group_like` gives all_gather."""
    if len(buffers) != len(ranks):
        raise ValueError(
            f"{len(buffers)} buffers for {len(ranks)} ranks -- must match"
        )
    _check_ranks(ranks)
    first = np.asarray(buffers[0])
    for i, b in enumerate(buffers[1:], start=1):
        b = np.asarray(b)
        if b.dtype != first.dtype:
            raise ValueError(
                f"all group buffers must share dtype: buffer 0 is "
                f"{first.dtype}, buffer {i} is {b.dtype}"
            )
        if b.shape != first.shape:
            raise ValueError(
                f"all group buffers must share shape: buffer 0 has "
                f"{first.shape}, buffer {i} has {b.shape}"
            )


def ring_all_reduce(
    buffers: Sequence[np.ndarray],
    ranks: Sequence[int],
    log: TrafficLog | None = None,
    kind: TrafficKind = TrafficKind.OTHER,
    tag: str = "",
) -> list[np.ndarray]:
    """Sum-all-reduce via reduce-scatter + all-gather rings.

    Returns new arrays (one per rank), all equal to the element-wise sum.
    Each rank sends ``2 (k-1)/k`` of the buffer size, the classic
    bandwidth-optimal ring volume the paper's §3.3.1 ``(d-1)/d`` scaling
    argument refers to.
    """
    _check_group(buffers, ranks)
    _sanitize("all_reduce", ranks, np.asarray(buffers[0]).shape,
              np.asarray(buffers[0]).dtype, tag)
    with _comm_span("all_reduce", ranks, kind, tag):
        k = len(ranks)
        if k == 1:
            return [buffers[0].copy()]
        flat = [
            np.ascontiguousarray(b, dtype=np.float64).ravel().copy()
            for b in buffers
        ]
        n = flat[0].size
        bounds = np.linspace(0, n, k + 1).astype(int)
        itemsize = flat[0].itemsize

        def chunk(i: int) -> slice:
            j = i % k
            return slice(bounds[j], bounds[j + 1])

        # Phase 1: reduce-scatter.  Step s: rank i sends chunk (i - s) to
        # rank i+1, which accumulates.
        for step in range(k - 1):
            for i in range(k):
                src, dst = i, (i + 1) % k
                sl = chunk(i - step)
                flat[dst][sl] += flat[src][sl]
                if log is not None:
                    log.add(
                        ranks[src],
                        ranks[dst],
                        (sl.stop - sl.start) * itemsize,
                        kind,
                        tag,
                    )
        # After phase 1, rank i holds the fully-reduced chunk (i + 1).
        # Phase 2: all-gather the reduced chunks around the ring.
        for step in range(k - 1):
            for i in range(k):
                src, dst = i, (i + 1) % k
                sl = chunk(i + 1 - step)
                flat[dst][sl] = flat[src][sl]
                if log is not None:
                    log.add(
                        ranks[src],
                        ranks[dst],
                        (sl.stop - sl.start) * itemsize,
                        kind,
                        tag,
                    )
        shape, dtype = buffers[0].shape, buffers[0].dtype
        return [f.reshape(shape).astype(dtype) for f in flat]


def all_gather(
    shards: Sequence[np.ndarray],
    ranks: Sequence[int],
    log: TrafficLog | None = None,
    kind: TrafficKind = TrafficKind.OTHER,
    tag: str = "",
    axis: int = 0,
) -> list[np.ndarray]:
    """Ring all-gather: every rank ends with the concatenation (along
    ``axis``) of all shards, in group-rank order."""
    _check_group_like(shards, ranks, axis)
    with _comm_span("all_gather", ranks, kind, tag):
        k = len(ranks)
        full = np.concatenate([np.asarray(s) for s in shards], axis=axis)
        _sanitize("all_gather", ranks, full.shape, full.dtype, tag)
        if log is not None and k > 1:
            # Ring: each rank forwards each of the other k-1 shards once.
            for step in range(k - 1):
                for i in range(k):
                    src, dst = i, (i + 1) % k
                    moved = shards[(i - step) % k].nbytes
                    log.add(ranks[src], ranks[dst], moved, kind, tag)
        return [full.copy() for _ in range(k)]


def reduce_scatter(
    buffers: Sequence[np.ndarray],
    ranks: Sequence[int],
    log: TrafficLog | None = None,
    kind: TrafficKind = TrafficKind.OTHER,
    tag: str = "",
) -> list[np.ndarray]:
    """Ring reduce-scatter along axis 0: rank i receives the i-th
    equal slab of the element-wise sum.  Requires axis-0 divisibility."""
    _check_group(buffers, ranks)
    k = len(ranks)
    first = np.asarray(buffers[0])
    if first.ndim < 1:
        raise ValueError(
            "reduce_scatter needs buffers with at least 1 dimension to "
            "scatter along axis 0"
        )
    if first.shape[0] % k != 0:
        raise ValueError(
            f"reduce_scatter needs axis-0 ({first.shape[0]}) divisible "
            f"by group size ({k})"
        )
    _sanitize("reduce_scatter", ranks, first.shape, first.dtype, tag)
    with _comm_span("reduce_scatter", ranks, kind, tag):
        total = np.sum([b.astype(np.float64) for b in buffers], axis=0)
        slabs = np.split(total, k, axis=0)
        if log is not None and k > 1:
            per_rank_bytes = buffers[0].nbytes // k
            for step in range(k - 1):
                for i in range(k):
                    log.add(
                        ranks[i], ranks[(i + 1) % k], per_rank_bytes, kind, tag
                    )
        return [s.astype(buffers[0].dtype) for s in slabs]


def broadcast(
    buffer: np.ndarray,
    root: int,
    ranks: Sequence[int],
    log: TrafficLog | None = None,
    kind: TrafficKind = TrafficKind.OTHER,
    tag: str = "",
) -> list[np.ndarray]:
    """Broadcast from ``root`` (a global rank in ``ranks``) to the group."""
    _check_ranks(ranks)
    if root not in ranks:
        raise ValueError(f"root {root} not in group {ranks}")
    buffer = np.asarray(buffer)
    _sanitize("broadcast", ranks, buffer.shape, buffer.dtype,
              tag or f"root={root}")
    with _comm_span("broadcast", ranks, kind, tag):
        out = []
        for r in ranks:
            out.append(np.asarray(buffer).copy())
            if log is not None and r != root:
                log.add(root, r, buffer.nbytes, kind, tag)
        return out


def send(
    buffer: np.ndarray,
    src: int,
    dst: int,
    log: TrafficLog | None = None,
    kind: TrafficKind = TrafficKind.PIPELINE_P2P,
    tag: str = "",
) -> np.ndarray:
    """Point-to-point transfer; returns the received array."""
    if src == dst:
        raise ValueError("p2p send requires distinct src and dst ranks")
    buffer = np.asarray(buffer)
    _sanitize("send", (src, dst), buffer.shape, buffer.dtype, tag)
    with _obs_span(
        "send", phase=f"comm.{kind.value}", rank=src, dst=dst, tag=tag
    ):
        if log is not None:
            log.add(src, dst, buffer.nbytes, kind, tag)
        return np.asarray(buffer).copy()


def ring_all_reduce_hops(
    n: int, itemsize: int, k: int
) -> list[tuple[int, int, int]]:
    """The exact ``(src_index, dst_index, nbytes)`` hop sequence
    :func:`ring_all_reduce` logs for a k-rank ring over ``n`` elements.

    Pure function of the ring geometry — the mp backend replays this
    plan into the parent's :class:`TrafficLog` while real processes move
    the bytes, and the conformance tests assert the coop log matches it
    record for record.
    """
    if k < 2:
        return []
    bounds = np.linspace(0, n, k + 1).astype(int)

    def chunk_bytes(i: int) -> int:
        j = i % k
        return int(bounds[j + 1] - bounds[j]) * itemsize

    hops = []
    for step in range(k - 1):  # phase 1: reduce-scatter
        for i in range(k):
            hops.append((i, (i + 1) % k, chunk_bytes(i - step)))
    for step in range(k - 1):  # phase 2: all-gather
        for i in range(k):
            hops.append((i, (i + 1) % k, chunk_bytes(i + 1 - step)))
    return hops


def ring_all_gather_hops(shard_nbytes: Sequence[int]) -> list[tuple[int, int, int]]:
    """Hop plan :func:`all_gather` logs: each rank forwards each of the
    other ``k-1`` shards once around the ring."""
    k = len(shard_nbytes)
    if k < 2:
        return []
    hops = []
    for step in range(k - 1):
        for i in range(k):
            hops.append((i, (i + 1) % k, int(shard_nbytes[(i - step) % k])))
    return hops


def ring_reduce_scatter_hops(
    buffer_nbytes: int, k: int
) -> list[tuple[int, int, int]]:
    """Hop plan :func:`reduce_scatter` logs: ``(k-1)`` steps of one
    slab (``nbytes/k``) per rank."""
    if k < 2:
        return []
    per_rank = buffer_nbytes // k
    hops = []
    for step in range(k - 1):
        for i in range(k):
            hops.append((i, (i + 1) % k, per_rank))
    return hops


def _check_group_like(
    shards: Sequence[np.ndarray], ranks: Sequence[int], axis: int = 0
) -> None:
    """Group check for shard collectives (all_gather): shards may
    differ along the concatenation ``axis`` but must agree on rank,
    every other dimension, and dtype — validated up front so a bad
    group fails with the same style of ValueError as ``_check_group``
    instead of an opaque numpy concatenate error."""
    if len(shards) != len(ranks):
        raise ValueError(
            f"{len(shards)} shards for {len(ranks)} ranks -- must match"
        )
    _check_ranks(ranks)
    first = np.asarray(shards[0])
    if not -first.ndim <= axis < first.ndim:
        raise ValueError(
            f"axis {axis} out of bounds for shards of rank {first.ndim}"
        )
    ax = axis % first.ndim if first.ndim else 0
    ref = list(first.shape)
    for i, s in enumerate(shards[1:], start=1):
        s = np.asarray(s)
        if s.dtype != first.dtype:
            raise ValueError(
                f"all shards must share dtype: shard 0 is {first.dtype}, "
                f"shard {i} is {s.dtype}"
            )
        if s.ndim != first.ndim:
            raise ValueError(
                f"all shards must share rank: shard 0 has {first.ndim} "
                f"dims, shard {i} has {s.ndim}"
            )
        got = list(s.shape)
        if ref[:ax] + ref[ax + 1:] != got[:ax] + got[ax + 1:]:
            raise ValueError(
                "shards must match on every non-concatenation axis: "
                f"shard 0 has shape {tuple(ref)}, shard {i} has "
                f"{tuple(got)} (concat axis {axis})"
            )
