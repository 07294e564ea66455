"""Index models: size, build time, IO time and storage cost.

Implements the paper's analytical models (Section 3, "Data Model"):

* B+tree size via a geometric series over the tree levels, where the tree
  width ``k`` is derived from the disk block size and the index record
  size ``RecSize`` (key bytes plus a record pointer).
* Build time ``tip(idx, p) = tio(idx, p) + C(idx) * n * log_k(n)`` where
  ``tio`` is the time to read the partition and write the index through
  the container's network.
* Storage cost ``stp(idx, p, W) = W * size(idx, p) * Mst``.

Indexes are built **per table partition**; partitions of one index are
independent, can be built in parallel, in any order, and the index is
usable incrementally (a dataflow benefits from the fraction already
built).

Every figure of an index is computed once per run, on its first request.
The figures read only the partitions' record counts, the table's column
statistics and the index spec, and none of these changes during a run: a
batch update creates a new *version* of a partition with the same record
count. The memoised figures are therefore exactly the floats a fresh
computation would return.
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from typing import NamedTuple

from repro.cloud.container import ContainerSpec, PAPER_CONTAINER
from repro.cloud.pricing import PricingModel
from repro.data.table import Partition, Table

#: Bytes of the record pointer stored next to each key in an index entry.
POINTER_BYTES = 8.0

#: Disk block size used to derive the B+tree fanout ``k``.
BLOCK_BYTES = 8192.0


class IndexKind(Enum):
    """Physical index type. The paper assumes B+trees w.l.o.g."""

    BTREE = "btree"
    HASH = "hash"


@dataclass(frozen=True)
class IndexSpec:
    """Static identity of an index: table, ordered columns, kind.

    Attributes:
        table_name: Name of the indexed table (or file).
        columns: Ordered tuple of indexed column names.
        kind: Physical index type.
        build_constant: The per-record comparison constant ``C(idx)`` in
            seconds; calibrated so a 128 MB partition index builds in
            a few seconds (comparable to a real DBMS bulk build).
    """

    table_name: str
    columns: tuple[str, ...]
    kind: IndexKind = IndexKind.BTREE
    build_constant: float = 1e-6

    def __post_init__(self) -> None:
        if not self.columns:
            raise ValueError("an index needs at least one column")
        if self.build_constant <= 0:
            raise ValueError("build_constant must be positive")

    @cached_property
    def name(self) -> str:
        """``<table>__<col>_<col>``, formatted once per spec.

        The value lives in the instance ``__dict__``, outside the dataclass
        fields, so equality, hashing and the frozen fields are unchanged.
        """
        return f"{self.table_name}__{'_'.join(self.columns)}"

    def path(self, partition_id: int) -> str:
        """Storage path of the index partition built on table partition."""
        return f"idx/{self.name}/part-{partition_id:05d}"


# ----------------------------------------------------------------------
# Analytical size / time models
# ----------------------------------------------------------------------
def index_record_bytes(key_bytes: float) -> float:
    """Size of one index entry: key bytes plus the record pointer."""
    if key_bytes <= 0:
        raise ValueError("key_bytes must be positive")
    return key_bytes + POINTER_BYTES


def btree_fanout(rec_bytes: float, block_bytes: float = BLOCK_BYTES) -> int:
    """Tree width ``k``: entries per block, at least 2."""
    if rec_bytes <= 0:
        raise ValueError("rec_bytes must be positive")
    return max(2, int(block_bytes / rec_bytes))


def btree_size_bytes(num_records: int, key_bytes: float) -> float:
    """Size of a balanced B+tree over ``num_records`` keys.

    The leaf level stores all ``n`` entries; each upper level is a factor
    ``k`` smaller, so the total is the geometric series
    ``n * (1 - (1/k)^(m+1)) / (1 - 1/k)`` entries with height
    ``m = ceil(log_k n)`` (the paper's Section 3 series, written from the
    leaf level up).
    """
    if num_records < 0:
        raise ValueError("num_records must be non-negative")
    if num_records == 0:
        return 0.0
    rec = index_record_bytes(key_bytes)
    k = btree_fanout(rec)
    if num_records == 1:
        return rec
    height = max(1, math.ceil(math.log(num_records, k)))
    ratio = 1.0 / k
    total_entries = num_records * (1.0 - ratio ** (height + 1)) / (1.0 - ratio)
    return total_entries * rec


def hash_size_bytes(num_records: int, key_bytes: float, load_factor: float = 0.75) -> float:
    """Size of a hash index: one entry per record over the load factor."""
    if num_records < 0:
        raise ValueError("num_records must be non-negative")
    if not 0 < load_factor <= 1:
        raise ValueError("load_factor must be in (0, 1]")
    return num_records * index_record_bytes(key_bytes) / load_factor


@dataclass(frozen=True)
class IndexPartitionModel:
    """Analytical figures for one index partition."""

    partition_id: int
    num_records: int
    size_mb: float
    build_seconds: float
    io_seconds: float

    @property
    def total_build_seconds(self) -> float:
        return self.build_seconds + self.io_seconds


class _IndexFigures(NamedTuple):
    """The static figures of one index over one table object."""

    table: Table
    #: One model per partition, in ``table.partitions`` (= id) order.
    partitions: tuple[IndexPartitionModel, ...]
    size_mb: float


class IndexCostModel:
    """Computes per-partition sizes, build times and storage costs."""

    def __init__(
        self,
        pricing: PricingModel,
        container: ContainerSpec = PAPER_CONTAINER,
    ) -> None:
        self.pricing = pricing
        self.container = container
        # Each index's figures are computed once, on the first request,
        # and never go stale: record counts are fixed for a run and data
        # updates bump only partition versions, which no figure reads.
        # Keyed on (table name, spec), not id(table), because the model is
        # pickled into recovery snapshots; an entry is served only for the
        # table object it was computed from, so another table of the same
        # name recomputes.
        self._figures: dict[tuple[str, IndexSpec], _IndexFigures] = {}

    def key_bytes(self, table: Table, spec: IndexSpec) -> float:
        """Average key size of the index from the table's column stats."""
        return sum(table.statistics.field_bytes(c) for c in spec.columns)

    def _index_figures(self, table: Table, spec: IndexSpec) -> _IndexFigures:
        key = (table.name, spec)
        entry = self._figures.get(key)
        if entry is not None and entry.table is table:
            return entry
        key_bytes = self.key_bytes(table, spec)
        record_bytes = table.statistics.record_bytes()
        partitions = tuple(
            self._partition_figures(spec, key_bytes, record_bytes, p)
            for p in table.partitions
        )
        entry = _IndexFigures(table, partitions, sum(p.size_mb for p in partitions))
        self._figures[key] = entry
        return entry

    def _partition_figures(
        self, spec: IndexSpec, key_bytes: float, record_bytes: float, partition: Partition
    ) -> IndexPartitionModel:
        n = partition.num_records
        if spec.kind is IndexKind.HASH:
            size_mb = hash_size_bytes(n, key_bytes) / (1024.0 * 1024.0)
        else:
            size_mb = btree_size_bytes(n, key_bytes) / (1024.0 * 1024.0)
        # CPU part of the build, ``C(idx) * n * log_k(n)``.
        build_seconds = 0.0
        if n > 1:
            k = btree_fanout(index_record_bytes(key_bytes))
            build_seconds = spec.build_constant * n * math.log(n, k)
        # ``tio``: read the partition and write the index over the net.
        part_mb = n * record_bytes / (1024.0 * 1024.0)
        return IndexPartitionModel(
            partition_id=partition.partition_id,
            num_records=n,
            size_mb=size_mb,
            build_seconds=build_seconds,
            io_seconds=(part_mb + size_mb) / self.container.net_bw_mb_s,
        )

    def partition_model(
        self, table: Table, spec: IndexSpec, partition: Partition
    ) -> IndexPartitionModel:
        """Size, build time and IO time of the index partition on ``partition``."""
        return self._index_figures(table, spec).partitions[partition.partition_id]

    def partition_size_mb(self, table: Table, spec: IndexSpec, partition: Partition) -> float:
        """Size in MB of the index partition built on ``partition``."""
        return self._index_figures(table, spec).partitions[partition.partition_id].size_mb

    def index_size_mb(self, table: Table, spec: IndexSpec) -> float:
        """Full index size: the sum over all table partitions."""
        return self._index_figures(table, spec).size_mb

    def io_seconds(self, table: Table, spec: IndexSpec, partition: Partition) -> float:
        """``tio``: read the partition and write the index over the net."""
        return self.partition_model(table, spec, partition).io_seconds

    def build_seconds(self, table: Table, spec: IndexSpec, partition: Partition) -> float:
        """CPU part of the build: ``C(idx) * n * log_k(n)``."""
        return self.partition_model(table, spec, partition).build_seconds

    def build_time_quanta(self, table: Table, spec: IndexSpec) -> float:
        """``ti(idx)``: total build time over all partitions, in quanta."""
        seconds = sum(
            p.total_build_seconds for p in self._index_figures(table, spec).partitions
        )
        return self.pricing.quanta(seconds)

    def storage_cost_dollars(self, table: Table, spec: IndexSpec, window_quanta: float) -> float:
        """``st(idx, W)``: cost of keeping the whole index for W quanta."""
        if window_quanta < 0:
            raise ValueError("window_quanta must be non-negative")
        return self.pricing.storage_cost(self.index_size_mb(table, spec), window_quanta)


@dataclass
class IndexPartitionState:
    """Mutable build state of one index partition.

    ``checkpoint_seconds`` is durable partial-build progress: the build
    work already persisted by an interrupted (preempted, crashed or
    transiently failed) build operator. The tuner subtracts it from the
    partition's build-candidate duration, so a resumed build only pays
    for the remaining work. It resets when the partition is built (the
    checkpoints are subsumed) or invalidated (the data changed).
    """

    partition_id: int
    built: bool = False
    built_at: float | None = None
    table_version: int = 0
    checkpoint_seconds: float = 0.0

    def mark_built(self, time: float, table_version: int) -> None:
        self.built = True
        self.built_at = time
        self.table_version = table_version
        self.checkpoint_seconds = 0.0

    def add_checkpoint(self, seconds: float) -> None:
        if seconds < 0:
            raise ValueError("checkpoint progress must be non-negative")
        self.checkpoint_seconds += seconds

    def invalidate(self) -> None:
        self.built = False
        self.built_at = None
        self.checkpoint_seconds = 0.0


@dataclass
class Index:
    """Runtime object for one (potential or materialised) index.

    Tracks which of its partitions are built and when — the paper's
    ``idx(t, C, T)`` with ``T`` the ordered creation time points.
    """

    spec: IndexSpec
    table: Table
    partitions: dict[int, IndexPartitionState] = field(default_factory=dict)
    #: Bumped on every build-state mutation (build, invalidation, drop,
    #: checkpoint). Memoised cost terms key on ``(name, build_version)``:
    #: a stale version can never be served because every mutation path
    #: goes through the methods below.
    build_version: int = 0

    def __post_init__(self) -> None:
        if not self.partitions:
            self.partitions = {
                p.partition_id: IndexPartitionState(partition_id=p.partition_id)
                for p in self.table.partitions
            }
        # Built partitions and the table records they cover. The three
        # build-state writers below (mark_built, invalidate_partition,
        # drop_all) keep both current, so the aggregates read them
        # instead of scanning the partition states.
        self._built_count = 0
        self._covered_records = 0
        for pid, st in self.partitions.items():
            if st.built:
                self._built_count += 1
                self._covered_records += self.table.partition(pid).num_records

    @property
    def name(self) -> str:
        return self.spec.name

    def built_partition_ids(self) -> list[int]:
        return sorted(pid for pid, st in self.partitions.items() if st.built)

    def unbuilt_partition_ids(self) -> list[int]:
        return sorted(pid for pid, st in self.partitions.items() if not st.built)

    @property
    def built_partition_count(self) -> int:
        return self._built_count

    @property
    def fully_built(self) -> bool:
        return self._built_count == len(self.partitions)

    @property
    def any_built(self) -> bool:
        return self._built_count > 0

    def built_fraction(self) -> float:
        """Fraction of table *records* covered by built index partitions.

        Indexes are usable incrementally; a dataflow is sped up in
        proportion to the covered records. The covered count is an exact
        integer, so the quotient does not depend on the order in which
        partitions were built.
        """
        total = self.table.num_records
        if total == 0:
            return 1.0 if self.fully_built else 0.0
        return self._covered_records / total

    def built_size_mb(self, cost_model: IndexCostModel) -> float:
        return sum(
            cost_model.partition_size_mb(self.table, self.spec, self.table.partition(pid))
            for pid, st in self.partitions.items()
            if st.built
        )

    def creation_times(self) -> list[float]:
        """The ordered creation time points ``T`` of built partitions."""
        times = [st.built_at for st in self.partitions.values() if st.built]
        return sorted(t for t in times if t is not None)

    def state_digest(self) -> str:
        """A stable 8-hex digest of the full build state.

        Recovery commit records carry one digest per index so resume can
        verify the replayed catalog (built flags, build times, table
        versions, checkpoint progress) matches the crashed process.
        """
        parts = [f"{self.name}:{self.build_version}"]
        for pid in sorted(self.partitions):
            st = self.partitions[pid]
            parts.append(
                f"{pid}:{int(st.built)}:{st.built_at!r}:"
                f"{st.table_version}:{st.checkpoint_seconds!r}"
            )
        return f"{zlib.crc32('|'.join(parts).encode('utf-8')):08x}"

    def mark_built(self, partition_id: int, time: float) -> None:
        state = self.partitions[partition_id]
        partition = self.table.partition(partition_id)
        if not state.built:
            self._built_count += 1
            self._covered_records += partition.num_records
        state.mark_built(time, partition.version)
        self.build_version += 1

    def record_checkpoint(self, partition_id: int, seconds: float) -> None:
        """Accumulate durable partial-build progress for a partition."""
        self.partitions[partition_id].add_checkpoint(seconds)
        self.build_version += 1

    def checkpoint_seconds(self, partition_id: int) -> float:
        return self.partitions[partition_id].checkpoint_seconds

    def invalidate_partition(self, partition_id: int) -> None:
        """Drop an index partition after a data update invalidates it."""
        state = self.partitions[partition_id]
        if state.built:
            self._built_count -= 1
            self._covered_records -= self.table.partition(partition_id).num_records
        state.invalidate()
        self.build_version += 1

    def drop_all(self) -> None:
        for state in self.partitions.values():
            state.invalidate()
        self._built_count = 0
        self._covered_records = 0
        self.build_version += 1
