"""Tables, partitions and statistics.

The paper models a table by its schema (column names and types), an ordered
set of partitions, and statistics holding the average size of each column's
fields: ``t(schema, P, S)``. A partition is ``p(id, n, path)`` with ``n``
records and a path in the storage service (Section 3, "Data Model").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum


class ColumnType(Enum):
    """Column data types used by the size models."""

    INTEGER = "integer"
    FLOAT = "float"
    DATE = "date"
    CHAR = "char"
    TEXT = "text"


@dataclass(frozen=True)
class Column:
    """One column of a table schema.

    Attributes:
        name: Column name.
        ctype: Data type.
        width: Declared width for CHAR columns (characters); ignored for
            other types.
    """

    name: str
    ctype: ColumnType
    width: int = 0

    def __post_init__(self) -> None:
        if self.ctype is ColumnType.CHAR and self.width <= 0:
            raise ValueError(f"CHAR column {self.name!r} needs a positive width")


@dataclass(frozen=True)
class TableSchema:
    """Ordered set of columns making up a table."""

    name: str
    columns: tuple[Column, ...]

    def __post_init__(self) -> None:
        names = [c.name for c in self.columns]
        if len(names) != len(set(names)):
            raise ValueError(f"duplicate column names in schema {self.name!r}")

    def column(self, name: str) -> Column:
        for col in self.columns:
            if col.name == name:
                return col
        raise KeyError(f"no column {name!r} in table {self.name!r}")

    def column_names(self) -> list[str]:
        return [c.name for c in self.columns]


@dataclass(frozen=True)
class Partition:
    """One horizontal partition of a table.

    Attributes:
        partition_id: Ordinal within the table's ordered partition set.
        num_records: Number of records ``n`` in the partition.
        path: Storage-service path of the partition data.
        version: Data version; bumped by batch updates, which invalidates
            indexes built on older versions.
    """

    partition_id: int
    num_records: int
    path: str
    version: int = 0

    def __post_init__(self) -> None:
        if self.num_records < 0:
            raise ValueError("num_records must be non-negative")


@dataclass(frozen=True)
class TableStatistics:
    """Average field size, in bytes, for each column of a table."""

    avg_field_bytes: dict[str, float] = field(default_factory=dict)

    def field_bytes(self, column: str) -> float:
        try:
            return self.avg_field_bytes[column]
        except KeyError as exc:
            raise KeyError(f"no statistics for column {column!r}") from exc

    def record_bytes(self, columns: list[str] | None = None) -> float:
        """Average record size over ``columns`` (all columns if None)."""
        names = columns if columns is not None else list(self.avg_field_bytes)
        return sum(self.field_bytes(c) for c in names)


@dataclass
class Table:
    """A partitioned table stored in the cloud storage service.

    Partition ids are positions: ``partitions[i].partition_id == i``, as
    :func:`partition_table` numbers them, so :meth:`partition` is one
    list index. The record total is summed once: :meth:`update_partition`,
    the only writer of ``partitions``, keeps every partition's count.
    """

    schema: TableSchema
    partitions: list[Partition]
    statistics: TableStatistics

    def __post_init__(self) -> None:
        for position, part in enumerate(self.partitions):
            if part.partition_id != position:
                raise ValueError(
                    f"partition ids of table {self.name!r} must be 0..n-1 in order; "
                    f"position {position} holds partition {part.partition_id}"
                )
        self._num_records = sum(p.num_records for p in self.partitions)

    @property
    def name(self) -> str:
        return self.schema.name

    @property
    def num_records(self) -> int:
        return self._num_records

    def size_mb(self) -> float:
        """Estimated table size from record count and column statistics."""
        rec = self.statistics.record_bytes()
        return self.num_records * rec / (1024.0 * 1024.0)

    def partition(self, partition_id: int) -> Partition:
        if 0 <= partition_id < len(self.partitions):
            return self.partitions[partition_id]
        raise KeyError(f"no partition {partition_id} in table {self.name!r}")

    def update_partition(self, partition_id: int) -> Partition:
        """Simulate a batch update: create a new version of one partition.

        The new version keeps the record count, so every figure of the
        index model stays valid. Returns the new partition object. Indexes
        built on the old version must be invalidated by the caller (see
        :meth:`repro.data.index_model.Index.invalidate_partition`).
        """
        part = self.partition(partition_id)
        updated = Partition(
            partition_id=part.partition_id,
            num_records=part.num_records,
            path=part.path,
            version=part.version + 1,
        )
        self.partitions[partition_id] = updated
        return updated


def partition_table(
    name: str,
    schema: TableSchema,
    statistics: TableStatistics,
    total_records: int,
    max_partition_mb: float = 128.0,
) -> Table:
    """Split ``total_records`` into partitions of at most ``max_partition_mb``.

    Mirrors the evaluation setup where files are cut into 128 MB partitions
    (Section 6.1).
    """
    if total_records < 0:
        raise ValueError("total_records must be non-negative")
    if max_partition_mb <= 0:
        raise ValueError("max_partition_mb must be positive")
    rec_bytes = statistics.record_bytes()
    max_records = max(1, int(max_partition_mb * 1024 * 1024 / max(rec_bytes, 1e-9)))
    partitions: list[Partition] = []
    remaining = total_records
    pid = 0
    while remaining > 0:
        count = min(max_records, remaining)
        partitions.append(
            Partition(partition_id=pid, num_records=count, path=f"{name}/part-{pid:05d}")
        )
        remaining -= count
        pid += 1
    if not partitions:
        partitions.append(Partition(partition_id=0, num_records=0, path=f"{name}/part-00000"))
    return Table(schema=schema, partitions=partitions, statistics=statistics)
