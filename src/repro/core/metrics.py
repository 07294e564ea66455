"""Metrics collection for the macro experiments (Figs. 12-14, Table 7)."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import overload

from repro.obs import MetricsRegistry


@dataclass(frozen=True)
class DataflowOutcome:
    """Per-dataflow record of one service run."""

    name: str
    app: str
    issued_at: float
    started_at: float
    finished_at: float
    money_quanta: int
    ops_executed: int
    builds_completed: int
    builds_killed: int
    operator_retries: int = 0

    @property
    def makespan_quanta(self) -> float:
        return (self.finished_at - self.started_at) / 60.0

    @property
    def queue_delay_s(self) -> float:
        return self.started_at - self.issued_at


@dataclass(frozen=True)
class IndexSnapshot:
    """Point of the Figure 13 adaptation time series."""

    time: float
    indexes_built: int
    index_partitions_built: int
    storage_mb: float
    cumulative_storage_dollars: float


#: The injected-fault kind histogram lives under this registry prefix.
_INJECTED_PREFIX = "faults/injected/"


class _FaultCounter:
    """``metrics.x`` reads and writes the registry counter ``faults/x``."""

    def __set_name__(self, owner: type, name: str) -> None:
        self.key = f"faults/{name}"

    @overload
    def __get__(self, obj: None, objtype: type | None = None) -> _FaultCounter: ...

    @overload
    def __get__(self, obj: ServiceMetrics, objtype: type | None = None) -> int: ...

    def __get__(
        self, obj: ServiceMetrics | None, objtype: type | None = None
    ) -> int | _FaultCounter:
        if obj is None:
            return self
        return int(obj.registry.counter(self.key).value)

    def __set__(self, obj: ServiceMetrics, total: int) -> None:
        obj.registry.counter(self.key).set(total)


@dataclass
class ServiceMetrics:
    """Everything a service run reports.

    ``compute_dollars`` is the total leased-quanta bill of all executed
    dataflows; ``storage_dollars`` the integral of index bytes over time.

    The fault-tolerance counters are *views* onto the metrics registry:
    reads and ``+=`` writes go through ``registry`` so one store backs
    both this dataclass's public API and ``--metrics-out`` dumps. The
    registry is excluded from ``repr``/``==`` — two runs compare equal
    iff their observable outcomes match, exactly as before.
    """

    strategy: str
    outcomes: list[DataflowOutcome] = field(default_factory=list)
    snapshots: list[IndexSnapshot] = field(default_factory=list)
    indexes_created: int = 0
    indexes_deleted: int = 0
    horizon_s: float = 0.0
    registry: MetricsRegistry = field(
        default_factory=MetricsRegistry, repr=False, compare=False
    )

    # ------------------------------------------------------------------
    # Fault tolerance (robustness experiments): registry-backed views
    # ------------------------------------------------------------------
    @property
    def faults_injected(self) -> dict[str, int]:
        return {
            name[len(_INJECTED_PREFIX):]: int(counter.value)
            for name, counter in sorted(
                self.registry.counters_with_prefix(_INJECTED_PREFIX).items()
            )
            if counter.value
        }

    @faults_injected.setter
    def faults_injected(self, by_kind: dict[str, int]) -> None:
        for name, counter in self.registry.counters_with_prefix(
            _INJECTED_PREFIX
        ).items():
            if name[len(_INJECTED_PREFIX):] not in by_kind:
                counter.set(0)
        for kind, count in by_kind.items():
            self.registry.counter(f"{_INJECTED_PREFIX}{kind}").set(count)

    operator_retries = _FaultCounter()
    operators_recovered = _FaultCounter()
    retries_exhausted = _FaultCounter()
    containers_crashed = _FaultCounter()
    stragglers = _FaultCounter()
    builds_failed = _FaultCounter()
    checkpoints_recorded = _FaultCounter()
    checkpoint_resumes = _FaultCounter()
    storage_put_failures = _FaultCounter()
    storage_delete_failures = _FaultCounter()
    degraded_builds = _FaultCounter()

    # ------------------------------------------------------------------
    # Aggregates (Figure 12 / 14)
    # ------------------------------------------------------------------
    def finished(self, by: float | None = None) -> list[DataflowOutcome]:
        """Dataflows finished by time ``by`` (default: the horizon)."""
        cutoff = self.horizon_s if by is None else by
        return [o for o in self.outcomes if o.finished_at <= cutoff]

    @property
    def num_finished(self) -> int:
        return len(self.finished())

    @property
    def compute_dollars(self) -> float:
        return sum(o.money_quanta for o in self.finished()) * 0.1

    def compute_quanta(self) -> int:
        return sum(o.money_quanta for o in self.finished())

    def storage_dollars(self) -> float:
        if not self.snapshots:
            return 0.0
        return self.snapshots[-1].cumulative_storage_dollars

    def total_dollars(self) -> float:
        return self.compute_dollars + self.storage_dollars()

    def cost_per_dataflow_quanta(self, quantum_price: float = 0.1) -> float:
        """Average total cost per finished dataflow, in quanta units."""
        finished = self.num_finished
        if finished == 0:
            return 0.0
        return self.total_dollars() / quantum_price / finished

    def avg_makespan_quanta(self) -> float:
        finished = self.finished()
        if not finished:
            return 0.0
        return sum(o.makespan_quanta for o in finished) / len(finished)

    # ------------------------------------------------------------------
    # Table 7
    # ------------------------------------------------------------------
    def total_ops(self) -> int:
        """Executed operators including attempted builds (Table 7)."""
        return sum(
            o.ops_executed + o.builds_completed + o.builds_killed for o in self.outcomes
        )

    def killed_ops(self) -> int:
        return sum(o.builds_killed for o in self.outcomes)

    def killed_percentage(self) -> float:
        total = self.total_ops()
        return 100.0 * self.killed_ops() / total if total else 0.0

    # ------------------------------------------------------------------
    # Fault tolerance
    # ------------------------------------------------------------------
    @property
    def total_faults_injected(self) -> int:
        return sum(self.faults_injected.values())

    @property
    def faults_recovered(self) -> int:
        """Faults the service absorbed without losing a dataflow:
        recovered operators, crashes survived by respawn, and stragglers
        simply waited out."""
        return self.operators_recovered + self.containers_crashed + self.stragglers

    def fault_summary(self) -> dict[str, int]:
        """Flat dict of every fault-tolerance counter (for reports)."""
        return {
            "faults_injected": self.total_faults_injected,
            "operator_retries": self.operator_retries,
            "operators_recovered": self.operators_recovered,
            "retries_exhausted": self.retries_exhausted,
            "containers_crashed": self.containers_crashed,
            "stragglers": self.stragglers,
            "builds_failed": self.builds_failed,
            "checkpoints_recorded": self.checkpoints_recorded,
            "checkpoint_resumes": self.checkpoint_resumes,
            "storage_put_failures": self.storage_put_failures,
            "storage_delete_failures": self.storage_delete_failures,
            "degraded_builds": self.degraded_builds,
        }
