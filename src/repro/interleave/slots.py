"""Build-index candidates and idle-slot ordering helpers.

Bridges the tuning layer (which decides *which* indexes are beneficial)
and the interleaving algorithms (which decide *where* their per-partition
build operators run).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from repro.dataflow.operator import BUILD_INDEX_PRIORITY, Operator
from repro.scheduling.schedule import Assignment, IdleSlot, Schedule

#: Prefix of synthetic build-operator names.
BUILD_OP_PREFIX = "build::"


@dataclass(frozen=True)
class BuildCandidate:
    """One per-partition index build operator awaiting placement.

    Attributes:
        index_name: The index this partition belongs to.
        partition_id: Table partition the index partition covers.
        duration_s: Estimated build time (CPU + IO) in seconds.
        gain: Share of the index's gain attributed to this partition
            (proportional to covered records); the knapsack objective.
    """

    index_name: str
    partition_id: int
    duration_s: float
    gain: float

    def __post_init__(self) -> None:
        if self.duration_s <= 0:
            raise ValueError("build duration must be positive")

    @cached_property
    def op_name(self) -> str:
        """The build operator's name, formatted once per candidate."""
        return f"{BUILD_OP_PREFIX}{self.index_name}::p{self.partition_id:05d}"

    def to_operator(self) -> Operator:
        """The schedulable operator for this build (priority -1, optional)."""
        return Operator(
            name=self.op_name,
            runtime=self.duration_s,
            priority=BUILD_INDEX_PRIORITY,
            optional=True,
        )


def parse_build_op_name(name: str) -> tuple[str, int] | None:
    """(index_name, partition_id) for a build operator name, else None."""
    if not name.startswith(BUILD_OP_PREFIX):
        return None
    body = name[len(BUILD_OP_PREFIX):]
    index_name, _, part = body.rpartition("::p")
    if not index_name or not part.isdigit():
        return None
    return index_name, int(part)


def slots_by_size(schedule: Schedule) -> list[IdleSlot]:
    """Idle slots of a schedule in decreasing size order (Algorithm 2)."""
    return sorted(schedule.idle_slots(), key=lambda s: s.duration, reverse=True)


def slot_fill_payloads(
    build_assignments: list[Assignment],
) -> list[dict[str, object]]:
    """Journal payloads for the builds an interleaver placed into slots.

    One JSON-ready dict per build assignment (schedule-relative times);
    the tuner emits these as ``slot_fill`` events for the schedule it
    actually selected, so a journal reader can reconstruct exactly how
    the idle capacity was allocated.
    """
    payloads: list[dict[str, object]] = []
    for a in sorted(build_assignments, key=lambda a: (a.container_id, a.start)):
        parsed = parse_build_op_name(a.op_name)
        if parsed is None:
            continue
        payloads.append(
            {
                "index": parsed[0],
                "partition": parsed[1],
                "container": a.container_id,
                "slot_start_s": a.start,
                "duration_s": a.end - a.start,
            }
        )
    return payloads
