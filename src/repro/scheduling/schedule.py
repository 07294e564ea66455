"""Execution schedules: assignments, makespan, money, idle slots.

An execution schedule ``Sd`` is a set of assignments of operators to
containers. Its execution time ``td`` spans the first operator start to
the last finish; its monetary cost ``md`` is the total leased quanta of
the containers; an idle slot is a continuous period inside a leased
quantum with nothing running; the fragmentation is the set of all idle
slots (Section 3, "Dataflow and Index Management").
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, field, replace

from repro.cloud.pricing import PricingModel
from repro.core.numeric import ceil_tol, floor_tol, gt_tol, lt_tol
from repro.dataflow.graph import Dataflow


@dataclass(frozen=True)
class Assignment:
    """One operator placed on one container for [start, end) seconds."""

    op_name: str
    container_id: int
    start: float
    end: float

    def __post_init__(self) -> None:
        if self.end < self.start:
            raise ValueError(f"assignment of {self.op_name!r} ends before it starts")

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass(frozen=True)
class IdleSlot:
    """A continuous idle period inside one leased quantum of a container.

    The paper's ``f(id, q, c, Sd)``: ``quantum`` is the index of the
    leased quantum the slot lies in (slots never cross quantum
    boundaries).
    """

    container_id: int
    quantum: int
    start: float
    end: float

    @property
    def duration(self) -> float:
        return self.end - self.start


class InfeasibleScheduleError(ValueError):
    """The schedule violates overlap or dependency constraints."""


def lease_quanta(first_start: float, last_end: float, tq: float) -> tuple[int, int]:
    """(first, last+1) quantum indices leased for work in [first_start, last_end].

    A container is leased from the quantum its first operator starts in
    to the quantum its last operator ends in, and for at least one
    quantum.
    """
    first = floor_tol(first_start / tq)
    return first, max(first + 1, ceil_tol(last_end / tq))


def quantum_gaps(
    busy: Iterable[tuple[float, float]], lease_start: float, lease_end: float, tq: float
) -> list[tuple[float, float]]:
    """Idle pieces of one container's lease, split at quantum boundaries.

    ``busy`` holds the container's (start, end) intervals, in any order;
    parts outside the lease are ignored. A build operator is stopped when
    the quantum it runs in expires (Section 6.1), so each idle period is
    cut at every multiple of ``tq``: planner slots and executed gaps both
    come from here.
    """
    idle: list[tuple[float, float]] = []
    cursor = lease_start
    for start, end in sorted(busy):
        if start >= lease_end:
            break
        if gt_tol(start, cursor):
            idle.append((cursor, start))
        cursor = max(cursor, end)
    idle.append((cursor, lease_end))
    pieces: list[tuple[float, float]] = []
    for piece, end in idle:
        while lt_tol(piece, end):
            boundary = min(floor_tol(piece / tq) * tq + tq, end)
            pieces.append((piece, boundary))
            piece = boundary
    return pieces


@dataclass
class Schedule:
    """A complete schedule of a dataflow (plus optional index builds)."""

    dataflow: Dataflow
    pricing: PricingModel
    assignments: list[Assignment] = field(default_factory=list)

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------
    def by_container(self) -> dict[int, list[Assignment]]:
        """Assignments grouped per container, sorted by start time."""
        grouped: dict[int, list[Assignment]] = {}
        for a in self.assignments:
            grouped.setdefault(a.container_id, []).append(a)
        for items in grouped.values():
            items.sort(key=lambda a: (a.start, a.end))
        return grouped

    def assignment_of(self, op_name: str) -> Assignment:
        for a in self.assignments:
            if a.op_name == op_name:
                return a
        raise KeyError(f"operator {op_name!r} is not assigned")

    def containers_used(self) -> list[int]:
        return sorted({a.container_id for a in self.assignments})

    def dataflow_assignments(self) -> list[Assignment]:
        """Assignments of non-optional dataflow operators only."""
        ops = self.dataflow.operators
        return [
            a
            for a in self.assignments
            if a.op_name in ops and not ops[a.op_name].is_build_index
        ]

    def build_assignments(self) -> list[Assignment]:
        ops = self.dataflow.operators
        return [
            a for a in self.assignments if a.op_name in ops and ops[a.op_name].is_build_index
        ]

    # ------------------------------------------------------------------
    # Objectives
    # ------------------------------------------------------------------
    def makespan_seconds(self) -> float:
        """``td``: first dataflow-operator start to last finish, seconds."""
        relevant = self.dataflow_assignments() or self.assignments
        if not relevant:
            return 0.0
        return max(a.end for a in relevant) - min(a.start for a in relevant)

    def makespan_quanta(self) -> float:
        return self.pricing.quanta(self.makespan_seconds())

    def leased_quanta(self, container_id: int) -> tuple[int, int]:
        """(first, last+1) quantum indices leased by a container.

        Dataflow operators determine the lease; interleaved build
        operators only use quanta that are already leased.
        """
        lease = self._leases().get(container_id)
        if lease is None:
            raise KeyError(f"container {container_id} is unused")
        return lease

    def _leases(self) -> dict[int, tuple[int, int]]:
        """Every used container's :meth:`leased_quanta`, from one pass.

        A container's lease spans its dataflow operators; one that holds
        none spans all its assignments. Min and max do not depend on the
        visiting order, so each lease equals the per-container scan.
        """
        ops = self.dataflow.operators
        spans: dict[int, tuple[float, float]] = {}
        fallback: dict[int, tuple[float, float]] = {}
        for a in self.assignments:
            op = ops.get(a.op_name)
            into = spans if op is not None and not op.is_build_index else fallback
            span = into.get(a.container_id)
            into[a.container_id] = (
                (a.start, a.end)
                if span is None
                else (min(span[0], a.start), max(span[1], a.end))
            )
        for cid, span in fallback.items():
            spans.setdefault(cid, span)
        tq = self.pricing.quantum_seconds
        return {cid: lease_quanta(first, last, tq) for cid, (first, last) in spans.items()}

    def money_quanta(self) -> int:
        """``md``: total leased quanta over all containers."""
        return sum(last - first for first, last in self._leases().values())

    def money_dollars(self) -> float:
        return self.pricing.compute_cost(self.money_quanta())

    # ------------------------------------------------------------------
    # Idle slots / fragmentation
    # ------------------------------------------------------------------
    def idle_slots(self) -> list[IdleSlot]:
        """All idle slots in the leased quanta of all containers."""
        tq = self.pricing.quantum_seconds
        leases = self._leases()
        slots: list[IdleSlot] = []
        for cid, items in self.by_container().items():
            first, last = leases[cid]
            busy = [(a.start, a.end) for a in items]
            for start, end in quantum_gaps(busy, first * tq, last * tq, tq):
                slots.append(IdleSlot(cid, quantum=int(start // tq), start=start, end=end))
        return slots

    def fragmentation_quanta(self) -> float:
        """Total idle time inside leased quanta, in quanta."""
        return sum(s.duration for s in self.idle_slots()) / self.pricing.quantum_seconds

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------
    def validate(
        self,
        net_bw_mb_s: float | None = None,
        require_all_assigned: bool = True,
    ) -> None:
        """Check overlap and dependency feasibility; raise if violated.

        With ``net_bw_mb_s`` given, cross-container flows must also leave
        room for the data transfer time.
        """
        assigned = {a.op_name for a in self.assignments}
        if len(assigned) != len(self.assignments):
            raise InfeasibleScheduleError("an operator is assigned more than once")
        if require_all_assigned:
            missing = [
                name
                for name, op in self.dataflow.operators.items()
                if not op.optional and name not in assigned
            ]
            if missing:
                raise InfeasibleScheduleError(f"unassigned operators: {missing[:5]}")
        for cid, items in self.by_container().items():
            for prev, nxt in zip(items, items[1:]):
                if nxt.start < prev.end - 1e-9:
                    raise InfeasibleScheduleError(
                        f"overlap on container {cid}: {prev.op_name!r} and {nxt.op_name!r}"
                    )
        position = {a.op_name: a for a in self.assignments}
        for edge in self.dataflow.edges:
            if edge.src not in position or edge.dst not in position:
                continue
            src, dst = position[edge.src], position[edge.dst]
            earliest = src.end
            if net_bw_mb_s and src.container_id != dst.container_id:
                earliest += edge.data_mb / net_bw_mb_s
            if dst.start < earliest - 1e-6:
                raise InfeasibleScheduleError(
                    f"{edge.dst!r} starts before its dependency {edge.src!r} completes"
                )

    # ------------------------------------------------------------------
    # Composition
    # ------------------------------------------------------------------
    def with_assignments(self, extra: list[Assignment]) -> "Schedule":
        """A new schedule with additional (e.g. build-index) assignments."""
        return replace(self, assignments=[*self.assignments, *extra])
