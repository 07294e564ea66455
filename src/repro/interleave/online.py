"""Online interleaving algorithm (Section 5.3.2).

Schedules dataflow and build-index operators *together*: build operators
are added to the dataflow as optional operators (priority -1) and the
skyline scheduler's union semantics guarantee that a build survives in a
schedule only if it does not increase the dataflow's execution time or
monetary cost. The information about fragmentation is not available up
front, so fewer builds are typically placed than with the LP algorithm
(Figure 8), and the resulting skyline differs because builds interact
with dataflow placement.
"""

from __future__ import annotations

from repro.dataflow.graph import Dataflow
from repro.interleave.lp import InterleavedSchedule, update_runtimes_for_indexes
from repro.interleave.slots import BuildCandidate
from repro.obs import NOOP_OBS, Observation
from repro.scheduling.schedule import Schedule
from repro.scheduling.skyline import SkylineScheduler


def online_interleave(
    dataflow: Dataflow,
    candidates: list[BuildCandidate],
    scheduler: SkylineScheduler,
    available_indexes: set[str] | None = None,
    index_fractions: dict[str, float] | None = None,
    index_sizes_mb: dict[str, float] | None = None,
    obs: Observation | None = None,
) -> list[InterleavedSchedule]:
    """Schedule the dataflow with optional build operators in one pass.

    Mutates ``dataflow`` by adding the optional build operators (they are
    part of the submitted job from the scheduler's point of view).
    Returns one interleaved schedule per skyline point.
    """
    obs = obs if obs is not None else NOOP_OBS
    savings: dict[str, float] = {}
    if available_indexes:
        savings = update_runtimes_for_indexes(
            dataflow, available_indexes, index_fractions, index_sizes_mb
        )
    by_name = {c.op_name: c for c in candidates}
    for cand in candidates:
        if cand.op_name not in dataflow.operators:
            dataflow.add_operator(cand.to_operator())
    skyline = scheduler.schedule(dataflow)
    out: list[InterleavedSchedule] = []
    for sched in skyline:
        build_assignments = []
        scheduled = []
        dataflow_assignments = []
        # Every build operator in the dataflow is a candidate, so the
        # candidates' names tell builds from dataflow operators.
        for a in sched.assignments:
            cand = by_name.get(a.op_name)
            if cand is None:
                dataflow_assignments.append(a)
            else:
                build_assignments.append(a)
                scheduled.append(cand)
        base = Schedule(
            dataflow=dataflow, pricing=sched.pricing, assignments=dataflow_assignments
        )
        if obs.enabled:
            obs.metrics.counter("interleave/online/builds_packed").inc(len(scheduled))
            obs.metrics.counter("interleave/online/builds_unplaced").inc(
                len(candidates) - len(scheduled)
            )
        out.append(
            InterleavedSchedule(
                schedule=base,
                build_assignments=build_assignments,
                scheduled_builds=scheduled,
                index_savings=dict(savings),
            )
        )
    return out
