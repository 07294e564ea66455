"""Linear-program-based interleaving algorithm (Algorithm 2).

Schedules the dataflow first, then fills the idle slots of each schedule
in the skyline with build-index operators: slots are visited in
decreasing size order and, for each slot, a 0/1 knapsack (Algorithm 3)
picks the subset of remaining build operators that maximises total gain.
Within a slot the selected operators are ordered by gain so that, at
execution time, the least useful builds are the ones cut off when the
quantum ends or a dataflow operator arrives.

Dataflow execution is never affected: builds only occupy time that is
leased anyway but idle.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.dataflow.graph import Dataflow
from repro.interleave.knapsack import (
    KnapsackItem,
    KnapsackSolution,
    knapsack_cache_stats,
    solve_knapsack,
)
from repro.interleave.slots import BuildCandidate, slots_by_size
from repro.obs import NOOP_OBS, Observation
from repro.scheduling.schedule import Assignment, Schedule
from repro.scheduling.skyline import SkylineScheduler


@dataclass
class InterleavedSchedule:
    """A dataflow schedule plus the build assignments packed into it."""

    schedule: Schedule
    build_assignments: list[Assignment] = field(default_factory=list)
    scheduled_builds: list[BuildCandidate] = field(default_factory=list)
    #: Runtime seconds each *available* index saved this dataflow when
    #: its speedup was folded into the operator estimates — the realized
    #: per-index benefit the ROI ledger attributes per execution.
    index_savings: dict[str, float] = field(default_factory=dict)

    @property
    def num_builds(self) -> int:
        return len(self.build_assignments)

    def combined(self) -> Schedule:
        """One schedule containing dataflow and build operators."""
        return self.schedule.with_assignments(self.build_assignments)


def update_runtimes_for_indexes(
    dataflow: Dataflow,
    available: set[str],
    fractions: dict[str, float] | None = None,
    index_sizes_mb: dict[str, float] | None = None,
) -> dict[str, float]:
    """Fold available indexes into operator estimates (in place).

    Implements lines 1-5 of Algorithm 2: operators that can use an
    available index run faster (scaled by the built fraction) and avoid
    scanning the whole input — instead they read the index from the
    storage service plus only the touched slice of the data, so the
    operator's input transfer shrinks to ``size/factor + index size``.

    Returns the runtime seconds each index saved, attributed per index
    over the operators/files it accelerated (the realized-benefit feed
    of the ROI ledger). The attribution is derived from the exact same
    per-file factors the runtime update applies, so it sums to the total
    compute-time reduction.
    """
    from repro.dataflow.operator import DataFile

    savings: dict[str, float] = {}
    for op in dataflow.operators.values():
        if not op.index_speedup or not op.inputs:
            continue
        new_runtime = op.runtime_with_indexes(available, fractions)
        if new_runtime >= op.runtime:
            continue
        weights = op.input_weights()
        new_inputs = []
        for data_file in op.inputs:
            index_name, factor = op.best_index_for(data_file.name, available, fractions)
            if index_name is None or factor <= 1.0:
                new_inputs.append(data_file)
                continue
            saved_s = op.runtime * weights.get(data_file.name, 0.0) * (1.0 - 1.0 / factor)
            savings[index_name] = savings.get(index_name, 0.0) + saved_s
            index_mb = (index_sizes_mb or {}).get(index_name, 0.0)
            new_size = min(data_file.size_mb, data_file.size_mb / factor + index_mb)
            new_inputs.append(DataFile(name=data_file.name, size_mb=new_size))
        op.inputs = tuple(new_inputs)
        op.runtime = new_runtime
    return savings


#: Bucket bounds of ``interleave/lp/knapsack_gap``: total_gain /
#: lp_bound per solve, 1.0 meaning the LP relaxation's gap is closed.
GAP_BUCKETS: tuple[float, ...] = (0.5, 0.75, 0.9, 0.95, 0.99, 1.0)


def _observe_solve(obs: Observation, solution: KnapsackSolution) -> None:
    """Publish one slot's solve: a cap hit, and its gain / LP-bound ratio."""
    obs.metrics.counter("interleave/lp/knapsack_capped").inc(float(solution.capped))
    if solution.lp_bound > 0:
        obs.metrics.histogram("interleave/lp/knapsack_gap", bounds=GAP_BUCKETS).observe(
            solution.total_gain / solution.lp_bound
        )


def pack_builds_into_schedule(
    schedule: Schedule,
    candidates: list[BuildCandidate],
    max_nodes: int = 50_000,
    obs: Observation | None = None,
) -> InterleavedSchedule:
    """Fill one schedule's idle slots with build operators via knapsacks."""
    obs = obs if obs is not None else NOOP_OBS
    remaining = list(candidates)
    build_assignments: list[Assignment] = []
    scheduled: list[BuildCandidate] = []
    slots_visited = 0
    for slot in slots_by_size(schedule):
        if not remaining:
            break
        slots_visited += 1
        items = [
            KnapsackItem(item_id=i, size=c.duration_s, gain=c.gain)
            for i, c in enumerate(remaining)
        ]
        solution = solve_knapsack(items, slot.duration, max_nodes=max_nodes)
        if obs.enabled:
            _observe_solve(obs, solution)
        if not solution.selected:
            continue
        chosen = [remaining[i] for i in solution.selected]
        # Most useful first: if execution cuts the slot short, the least
        # useful build is the one killed.
        chosen.sort(key=lambda c: c.gain, reverse=True)
        cursor = slot.start
        for cand in chosen:
            build_assignments.append(
                Assignment(cand.op_name, slot.container_id, cursor, cursor + cand.duration_s)
            )
            cursor += cand.duration_s
            scheduled.append(cand)
        taken = set(solution.selected)
        remaining = [c for i, c in enumerate(remaining) if i not in taken]
    if obs.enabled:
        obs.metrics.counter("interleave/lp/slots_visited").inc(slots_visited)
        obs.metrics.counter("interleave/lp/builds_packed").inc(len(scheduled))
        obs.metrics.counter("interleave/lp/builds_unplaced").inc(len(remaining))
        knapsack_cache_stats().publish(obs.metrics, "cache/knapsack")
    return InterleavedSchedule(
        schedule=schedule,
        build_assignments=build_assignments,
        scheduled_builds=scheduled,
    )


def lp_interleave(
    dataflow: Dataflow,
    candidates: list[BuildCandidate],
    scheduler: SkylineScheduler,
    available_indexes: set[str] | None = None,
    index_fractions: dict[str, float] | None = None,
    index_sizes_mb: dict[str, float] | None = None,
    max_nodes: int = 50_000,
    obs: Observation | None = None,
) -> list[InterleavedSchedule]:
    """Algorithm 2: the full LP interleaving pipeline.

    Updates operator runtimes for already-available indexes, computes the
    skyline of dataflow schedules, and packs the candidate build
    operators into each schedule's idle slots. Returns one interleaved
    schedule per skyline point.
    """
    savings: dict[str, float] = {}
    if available_indexes:
        savings = update_runtimes_for_indexes(
            dataflow, available_indexes, index_fractions, index_sizes_mb
        )
    skyline = scheduler.schedule(dataflow)
    interleaved = [
        pack_builds_into_schedule(s, candidates, max_nodes=max_nodes, obs=obs)
        for s in skyline
    ]
    for sched in interleaved:
        sched.index_savings = dict(savings)
    return interleaved


def select_fastest(interleaved: list[InterleavedSchedule]) -> InterleavedSchedule:
    """The evaluation's selection rule: take the fastest schedule.

    Ties are broken by the number of interleaved builds (more is better),
    then by money.
    """
    if not interleaved:
        raise ValueError("empty skyline")
    return min(
        interleaved,
        key=lambda i: (
            i.schedule.makespan_seconds(),
            -i.num_builds,
            i.schedule.money_quanta(),
        ),
    )
