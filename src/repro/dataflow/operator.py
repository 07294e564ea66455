"""Dataflow operators and the files that flow between them.

The paper models an operator as ``op(cpu, memory, disk, time)`` — CPU
utilisation, maximum memory, disk resources, and execution time — and
flows are labelled with the size of the data transferred (Section 3,
"Application Model"). Dataflow operators carry priority 1; index build
operators carry priority -1 and may be preempted (Section 6.1).
"""

from __future__ import annotations

from dataclasses import dataclass, field

#: Scheduler priority of regular dataflow operators.
DATAFLOW_PRIORITY = 1

#: Scheduler priority of index build operators (preemptible).
BUILD_INDEX_PRIORITY = -1


@dataclass(frozen=True)
class DataFile:
    """A file (or table partition) consumed or produced by an operator."""

    name: str
    size_mb: float

    def __post_init__(self) -> None:
        if self.size_mb < 0:
            raise ValueError("size_mb must be non-negative")


@dataclass
class Operator:
    """One node of a dataflow DAG.

    Attributes:
        name: Unique name within its dataflow.
        runtime: Estimated execution time in seconds (``op.time``).
        cpu: Fraction of a container CPU needed (0, 1].
        memory_mb: Maximum memory needed.
        disk_mb: Scratch disk needed.
        inputs: Files read (table partitions, intermediate results).
        outputs: Files written.
        priority: 1 for dataflow operators, -1 for index builds.
        optional: True for operators the scheduler may drop (index builds
            in the online interleaving algorithm).
        reads_table: Name of the catalog table this operator scans, if
            any — the hook through which indexes accelerate it.
        index_speedup: Map of index name -> speedup factor this operator
            enjoys when that index is fully built.
    """

    name: str
    runtime: float
    cpu: float = 1.0
    memory_mb: float = 512.0
    disk_mb: float = 0.0
    inputs: tuple[DataFile, ...] = ()
    outputs: tuple[DataFile, ...] = ()
    priority: int = DATAFLOW_PRIORITY
    optional: bool = False
    reads_table: str | None = None
    index_speedup: dict[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.runtime < 0:
            raise ValueError(f"operator {self.name!r} has negative runtime")
        if not 0 < self.cpu <= 1.0:
            raise ValueError(f"operator {self.name!r} cpu must be in (0, 1]")
        if self.memory_mb < 0 or self.disk_mb < 0:
            raise ValueError(f"operator {self.name!r} has negative resources")

    @property
    def is_build_index(self) -> bool:
        return self.priority < 0

    def input_mb(self) -> float:
        return sum(f.size_mb for f in self.inputs)

    def output_mb(self) -> float:
        return sum(f.size_mb for f in self.outputs)

    def input_weights(self) -> dict[str, float]:
        """Share of the operator's work attributed to each input file.

        Proportional to input sizes; an operator reading several files
        spends its runtime on them in proportion to their volume.
        """
        total = self.input_mb()
        if total <= 0:
            n = len(self.inputs)
            return {f.name: 1.0 / n for f in self.inputs} if n else {}
        return {f.name: f.size_mb / total for f in self.inputs}

    def best_index_for(
        self,
        file_name: str,
        available: set[str],
        fractions: dict[str, float] | None,
    ) -> tuple[str | None, float]:
        """Best available index for one input file and its speedup factor.

        Index names are ``<table>__<columns>``; an index applies to the
        input file whose name is its table. The factor is scaled by the
        fraction of the index already built (incremental use): the
        covered fraction runs at full speedup, the rest at 1x.
        """
        prefix = f"{file_name}__"
        best_name: str | None = None
        best = 1.0
        for index_name, speedup in self.index_speedup.items():
            if not index_name.startswith(prefix):
                continue
            if index_name not in available or speedup <= 1.0:
                continue
            fraction = 1.0 if fractions is None else fractions.get(index_name, 1.0)
            fraction = min(max(fraction, 0.0), 1.0)
            effective = 1.0 / ((1.0 - fraction) + fraction / speedup)
            if effective > best:
                best_name, best = index_name, effective
        return best_name, best

    def _effective_factor(
        self,
        file_name: str,
        available: set[str],
        fractions: dict[str, float] | None,
    ) -> float:
        return self.best_index_for(file_name, available, fractions)[1]

    def runtime_with_indexes(
        self,
        available: set[str] | None,
        fractions: dict[str, float] | None = None,
    ) -> float:
        """Effective runtime given the set of available index names.

        The runtime is apportioned over the operator's input files by
        size; each file's share is accelerated by the best available
        index on that file.
        """
        if not self.index_speedup or not available:
            return self.runtime
        weights = self.input_weights()
        if not weights:
            return self.runtime
        new_runtime = 0.0
        for file_name, weight in weights.items():
            factor = self._effective_factor(file_name, available, fractions)
            new_runtime += self.runtime * weight / factor
        return new_runtime
