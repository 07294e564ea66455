"""Skyline dataflow scheduler (Algorithm 4).

List-schedules the dataflow operators in dependency order, branching each
partial schedule over candidate containers, and keeps only the Pareto
skyline of (execution time, monetary cost) after every step. Between
schedules with equal time and money, the one with the most sequential
idle compute time is preferred — idle slots are where index build
operators will go. Optional operators (index builds, used by the online
interleaving algorithm of Section 5.3.2) may be skipped: the previous
skyline is unioned with the branched schedules, so an optional operator
survives only where it does not hurt time or money.

The skyline is capped (``max_skyline``) for tractability; the paper's
scheduler [12] applies the same kind of pruning.

Performance layer (behaviour-identical to the reference scheduler kept
in ``tests/differential/oracle.py``):

* topological orders are memoised across dataflows keyed on the graph
  structure (repeated Montage/LIGO/CyberShake instances share shapes);
* predecessor edges and operator durations are precomputed once per
  ``schedule()`` call instead of per branch;
* each partial carries its money (lease quanta, exact integers) and its
  longest *closed* idle gap incrementally, so scoring a partial is O(1)
  in the number of assignments;
* each step selects before it materialises: every branch is previewed
  (scored without copying the partial's state), the next skyline is
  picked from the previews and the pass-through partials, and only the
  at most ``max_skyline`` previews it keeps are copied into partials;
* the idle-time tie-break is scored only for exact (time, money, #ops)
  ties at the head of a group that enters the front, in O(1) per
  preview from its parent's two largest lease-tail gaps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.cloud.container import ContainerSpec, PAPER_CONTAINER
from repro.cloud.pricing import PricingModel
from repro.dataflow.graph import Dataflow, Edge
from repro.dataflow.operator import Operator
from repro.obs import NOOP_OBS, Observation
from repro.perf import CacheStats, LRUMemo
from repro.scheduling.schedule import Assignment, Schedule


@dataclass
class _Partial:
    """A partial schedule: enough state to branch and to score.

    ``time_end`` tracks only non-optional (dataflow) operators: optional
    index builds never count toward the makespan, but they do extend
    ``container_avail`` (capacity) and are charged in the money objective
    if they spill past the quanta the dataflow already leases — which is
    exactly what makes such schedules dominated and discarded.

    ``money_quanta`` is the total leased quanta over all containers,
    maintained exactly (integer arithmetic) as assignments land.
    ``max_closed_gap`` is the longest idle period that can no longer
    grow — the head gap of each container's lease plus every gap between
    consecutive assignments; only the per-container tail gaps (which move
    with the lease end) are computed at scoring time.
    """

    assignments: tuple[Assignment, ...] = ()
    container_avail: dict[int, float] = field(default_factory=dict)
    container_first: dict[int, float] = field(default_factory=dict)
    op_end: dict[str, float] = field(default_factory=dict)
    op_container: dict[str, int] = field(default_factory=dict)
    time_end: float = 0.0
    money_quanta: int = 0
    max_closed_gap: float = 0.0

    def branch(self) -> "_Partial":
        return _Partial(
            assignments=self.assignments,
            container_avail=dict(self.container_avail),
            container_first=dict(self.container_first),
            op_end=dict(self.op_end),
            op_container=dict(self.op_container),
            time_end=self.time_end,
            money_quanta=self.money_quanta,
            max_closed_gap=self.max_closed_gap,
        )


@dataclass(slots=True)
class _Preview:
    """The scored outcome of assigning one operator to one container,
    computed without copying the parent partial's dictionaries."""

    parent: _Partial
    cid: int
    start: float
    end: float
    time_end: float
    money_quanta: int
    max_closed_gap: float
    num_ops: int


class SkylineScheduler:
    """Algorithm 4 with bounded skyline and optional-operator support.

    Attributes:
        pricing: Quantum pricing (time/money are scored in quanta).
        container: Container spec (network bandwidth for transfer times).
        max_containers: The evaluation's cap ``C`` (Table 3: 100).
        max_skyline: Partial schedules kept per step.
        include_input_transfer: Whether entry operators pay the time to
            pull their input files from the storage service.
    """

    #: Memoised topological orders shared across scheduler instances,
    #: keyed by :meth:`Dataflow.structure_key`. Orders are pure
    #: functions of the structure, so sharing is semantically invisible.
    _TOPO_CACHE_SIZE = 256

    def __init__(
        self,
        pricing: PricingModel,
        container: ContainerSpec = PAPER_CONTAINER,
        max_containers: int = 100,
        max_skyline: int = 8,
        include_input_transfer: bool = True,
        obs: Observation | None = None,
    ) -> None:
        if max_containers <= 0:
            raise ValueError("max_containers must be positive")
        if max_skyline <= 0:
            raise ValueError("max_skyline must be positive")
        self.pricing = pricing
        self.container = container
        self.max_containers = max_containers
        self.max_skyline = max_skyline
        self.include_input_transfer = include_input_transfer
        self.obs = obs if obs is not None else NOOP_OBS
        self.topo_stats = CacheStats()
        self._topo_cache: LRUMemo[list[str]] = LRUMemo(
            self._TOPO_CACHE_SIZE, stats=self.topo_stats
        )

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def schedule(self, dataflow: Dataflow) -> list[Schedule]:
        """Return the skyline of execution schedules for ``dataflow``."""
        order = self._ready_order(dataflow)
        in_edges = dataflow.in_edges_map()
        durations = self._op_durations(dataflow)
        skyline: list[_Partial] = [_Partial()]
        branched_total = 0
        for op_name in order:
            op = dataflow.operators[op_name]
            duration = durations[op_name]
            edges = in_edges[op_name]
            previews = [
                preview
                for partial in skyline
                for preview in self._previews(partial, edges, duration, op)
            ]
            # Keeping an optional op unscheduled is allowed.
            passthrough = skyline if op.optional else []
            branched_total += len(previews) + len(passthrough)
            skyline = [
                self._materialize(entry, op) if isinstance(entry, _Preview) else entry
                for entry in self._select(previews, passthrough)
            ]
        if self.obs.enabled:
            self.obs.metrics.counter("scheduler/invocations").inc()
            self.obs.metrics.counter("scheduler/operators_placed").inc(len(order))
            self.obs.metrics.counter("scheduler/partials_branched").inc(branched_total)
            self.obs.metrics.histogram(
                "scheduler/skyline_size", bounds=(1.0, 2.0, 4.0, 8.0, 16.0, 32.0)
            ).observe(float(len(skyline)))
            self.topo_stats.publish(self.obs.metrics, "cache/scheduler_topo")
        return [
            Schedule(dataflow=dataflow, pricing=self.pricing, assignments=list(p.assignments))
            for p in skyline
        ]

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _ready_order(self, dataflow: Dataflow) -> list[str]:
        """Topological order with optional operators appended last.

        Optional index build operators have no dependencies or dependents,
        so processing them after the dataflow operators preserves the
        union semantics of the online interleaving algorithm.

        Orders are memoised on the dataflow's structural signature:
        generated workloads re-issue the same DAG shapes (with fresh
        runtimes) thousands of times per simulated day.
        """
        key = dataflow.structure_key()
        cached = self._topo_cache.get(key)
        if cached is not None:
            return cached
        topo = dataflow.topological_order()
        required = [n for n in topo if not dataflow.operators[n].optional]
        optional = [n for n in topo if dataflow.operators[n].optional]
        order = required + optional
        self._topo_cache.put(key, order)
        return order

    def _op_durations(self, dataflow: Dataflow) -> dict[str, float]:
        """Each operator's on-container duration, computed once.

        Matches the reference arithmetic exactly: ``runtime`` plus (when
        input transfer is modelled) ``input_mb() / net_bw``.
        """
        durations: dict[str, float] = {}
        for name, op in dataflow.operators.items():
            duration = op.runtime
            if self.include_input_transfer and op.inputs:
                duration += op.input_mb() / self.container.net_bw_mb_s
            durations[name] = duration
        return durations

    def _candidate_containers(self, partial: _Partial) -> list[int]:
        used = sorted(partial.container_avail)
        if len(used) < self.max_containers:
            fresh = (max(used) + 1) if used else 0
            return used + [fresh]
        return used

    def _previews(
        self, partial: _Partial, edges: list[Edge], duration: float, op: Operator
    ) -> list[_Preview]:
        """Score assigning ``op`` to each candidate container of
        ``partial`` without copying any state."""
        tq = self.pricing.quantum_seconds
        # Each placed input: its container, and its arrival on that
        # container and on any other.
        inputs: list[tuple[int, float, float]] = []
        for edge in edges:
            src_end = partial.op_end.get(edge.src)
            if src_end is not None:
                remote = src_end + edge.data_mb / self.container.net_bw_mb_s
                inputs.append((partial.op_container[edge.src], src_end, remote))
        num_ops = len(partial.assignments) + 1
        previews: list[_Preview] = []
        for cid in self._candidate_containers(partial):
            ready = 0.0
            for src_cid, local, remote in inputs:
                ready = max(ready, local if src_cid == cid else remote)
            avail = partial.container_avail.get(cid)
            if avail is None:
                start = ready
                start_q = math.floor(start / tq + 1e-9)
                old_contrib = 0
                # Head gap of a fresh lease: from the quantum boundary the
                # lease starts on to the operator's start.
                gap = start - start_q * tq
            else:
                start = max(ready, avail)
                start_q = math.floor(partial.container_first[cid] / tq + 1e-9)
                old_contrib = max(start_q + 1, math.ceil(avail / tq - 1e-9)) - start_q
                gap = start - avail
            end = start + duration
            new_contrib = max(start_q + 1, math.ceil(end / tq - 1e-9)) - start_q
            previews.append(_Preview(
                parent=partial,
                cid=cid,
                start=start,
                end=end,
                time_end=partial.time_end if op.optional else max(partial.time_end, end),
                money_quanta=partial.money_quanta + (new_contrib - old_contrib),
                max_closed_gap=max(partial.max_closed_gap, gap),
                num_ops=num_ops,
            ))
        return previews

    def _materialize(self, preview: _Preview, op: Operator) -> _Partial:
        """Commit a preview: copy the parent state and apply the move."""
        partial = preview.parent
        out = partial.branch()
        cid = preview.cid
        out.assignments = (
            *partial.assignments,
            Assignment(op.name, cid, preview.start, preview.end),
        )
        out.container_avail[cid] = preview.end
        out.container_first.setdefault(cid, preview.start)
        out.op_end[op.name] = preview.end
        out.op_container[op.name] = cid
        out.time_end = preview.time_end
        out.money_quanta = preview.money_quanta
        out.max_closed_gap = preview.max_closed_gap
        return out

    def _select(
        self, previews: list[_Preview], passthrough: list[_Partial]
    ) -> list[_Preview | _Partial]:
        """Pareto skyline on (time, money) of one step, capped at ``max_skyline``.

        One stable sort of the entries — previews, then pass-through
        partials — by (time, money, -#ops) puts the best candidate of
        each equal-(time, money) group first. Only that candidate can
        enter the front, and only while its money beats every earlier
        point's. Exact (time, money, #ops) ties at the head of such a
        group go to the most sequential idle, then to entry order.
        """
        tq = self.pricing.quantum_seconds
        entries: list[_Preview | _Partial] = [*previews, *passthrough]
        rows = [(p.time_end / tq, p.money_quanta, -p.num_ops, i) for i, p in enumerate(previews)]
        rows += [
            (p.time_end / tq, p.money_quanta, -len(p.assignments), i)
            for i, p in enumerate(passthrough, start=len(previews))
        ]
        rows.sort()
        front: list[_Preview | _Partial] = []
        tails: dict[int, tuple[float, int, float]] = {}
        best_money = math.inf
        for k, row in enumerate(rows):
            if row[1] >= best_money:
                continue
            best_money = row[1]
            end = k + 1
            while end < len(rows) and rows[end][:3] == row[:3]:
                end += 1
            pick = row[3]
            if end - k > 1:
                ties = [tie[3] for tie in rows[k:end]]
                pick = max(ties, key=lambda i: self._idle(entries[i], tails))
            front.append(entries[pick])
        if len(front) > self.max_skyline:
            if self.max_skyline == 1:
                front = [front[0]]  # the fastest point
            else:
                # Keep the extremes and evenly spaced interior points.
                step = (len(front) - 1) / (self.max_skyline - 1)
                picked = {round(i * step) for i in range(self.max_skyline)}
                front = [front[i] for i in sorted(picked)]
        return front

    def _idle(
        self, entry: _Preview | _Partial, tails: dict[int, tuple[float, int, float]]
    ) -> float:
        """Longest contiguous idle period across containers (tie-break).

        The closed gaps are carried incrementally. Of the lease tails,
        which still move, a preview changes only its own container's, so
        its parent's two largest tails score it in O(1).
        """
        if isinstance(entry, _Preview):
            first, first_cid, second = self._top_tails(entry.parent, tails)
            others = second if entry.cid == first_cid else first
            tq = self.pricing.quantum_seconds
            tail = math.ceil(entry.end / tq - 1e-9) * tq - entry.end
            return max(entry.max_closed_gap, others, tail)
        return max(entry.max_closed_gap, self._top_tails(entry, tails)[0])

    def _top_tails(
        self, partial: _Partial, tails: dict[int, tuple[float, int, float]]
    ) -> tuple[float, int, float]:
        """The largest lease-tail gap, its container and the runner-up
        (``-inf`` where there are too few containers), memoised in
        ``tails`` by partial for one step."""
        top = tails.get(id(partial))
        if top is None:
            tq = self.pricing.quantum_seconds
            first = second = -math.inf
            first_cid = -1
            for cid, avail in partial.container_avail.items():
                tail = math.ceil(avail / tq - 1e-9) * tq - avail
                if tail > first:
                    first, first_cid, second = tail, cid, first
                elif tail > second:
                    second = tail
            top = tails[id(partial)] = (first, first_cid, second)
        return top
