"""Byte-accurate communication traffic accounting.

Every primitive in :mod:`repro.comm.primitives` logs each point-to-point
transfer it performs (ring steps included) to a :class:`TrafficLog`.
The log is the ground truth for

- validating the paper's §3.2 communication-volume formulas
  (tensor parallelism moves ``8 b s h (t-1)/t`` bytes-worth of elements
  per layer per device; pipeline p2p moves ``b s h``), and
- the §5.9 effective-bisection-bandwidth experiment, which divides
  bytes crossing the cluster midpoint by the simulated time window.
"""

from __future__ import annotations

import enum
from collections import defaultdict
from dataclasses import dataclass, field

from repro.hardware import ClusterTopology
from repro.obs.tracer import record_transfer


class TrafficKind(enum.Enum):
    """What parallelism dimension a transfer belongs to."""

    TENSOR_PARALLEL = "tp"
    PIPELINE_P2P = "pp"
    DATA_PARALLEL = "dp"
    OTHER = "other"


@dataclass(frozen=True)
class TransferRecord:
    """One point-to-point transfer of ``nbytes`` from src to dst rank."""

    src: int
    dst: int
    nbytes: int
    kind: TrafficKind = TrafficKind.OTHER
    tag: str = ""

    def __post_init__(self) -> None:
        if self.nbytes < 0:
            raise ValueError("nbytes must be >= 0")
        if self.src < 0 or self.dst < 0:
            raise ValueError("ranks must be >= 0")


@dataclass
class TrafficLog:
    """Accumulates :class:`TransferRecord` entries."""

    records: list[TransferRecord] = field(default_factory=list)

    def add(
        self,
        src: int,
        dst: int,
        nbytes: int,
        kind: TrafficKind = TrafficKind.OTHER,
        tag: str = "",
    ) -> None:
        record = TransferRecord(src, dst, int(nbytes), kind, tag)
        self.records.append(record)
        # Attribute the transfer to every active tracer (span +
        # metrics; see repro.obs.tracer); a no-op when tracing is off.
        record_transfer(record.nbytes, record.kind.value)

    def total_bytes(self, kind: TrafficKind | None = None) -> int:
        return sum(r.nbytes for r in self.records if kind is None or r.kind is kind)

    def by_tag(self, kind: TrafficKind | None = None) -> dict[str, int]:
        """Total bytes per tag (optionally restricted to one kind)."""
        out: dict[str, int] = defaultdict(int)
        for r in self.records:
            if kind is None or r.kind is kind:
                out[r.tag] += r.nbytes
        return dict(out)

    def bytes_by_kind(self) -> dict[TrafficKind, int]:
        """Total bytes per traffic kind (the §3 decomposition axis)."""
        out: dict[TrafficKind, int] = defaultdict(int)
        for r in self.records:
            out[r.kind] += r.nbytes
        return dict(out)

    def bytes_sent_by_rank(self, kind: TrafficKind | None = None) -> dict[int, int]:
        out: dict[int, int] = defaultdict(int)
        for r in self.records:
            if kind is None or r.kind is kind:
                out[r.src] += r.nbytes
        return dict(out)

    def inter_node_bytes(
        self, topology: ClusterTopology, kind: TrafficKind | None = None
    ) -> int:
        """Bytes that traversed InfiniBand (src and dst on different nodes)."""
        return sum(
            r.nbytes
            for r in self.records
            if (kind is None or r.kind is kind)
            and not topology.same_node(r.src, r.dst)
        )

    def intra_node_bytes(
        self, topology: ClusterTopology, kind: TrafficKind | None = None
    ) -> int:
        return sum(
            r.nbytes
            for r in self.records
            if (kind is None or r.kind is kind) and topology.same_node(r.src, r.dst)
        )

    def bisection_bytes(
        self, topology: ClusterTopology, kind: TrafficKind | None = None
    ) -> int:
        """Bytes crossing the node-halves midpoint (for §5.9)."""
        half = topology.num_nodes // 2

        def side(rank: int) -> int:
            return 0 if topology.node_of(rank) < half else 1

        return sum(
            r.nbytes
            for r in self.records
            if (kind is None or r.kind is kind) and side(r.src) != side(r.dst)
        )

    def clear(self) -> None:
        self.records.clear()

    def __len__(self) -> int:
        return len(self.records)
