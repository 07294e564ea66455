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
  longest *closed* idle gap incrementally, so scoring a move is O(1) in
  the number of assignments. Container ids are ``0..k-1`` in order of
  first use (a fresh container is always the next id), so a partial's
  per-container state is one list, and each container's lease quanta and
  tail gap are computed once, when a move lands on it;
* one scoring loop serves every step. An operator's ready time on a
  container that holds none of its placed inputs is the largest remote
  arrival; it is computed once per parent, and only containers holding
  an input get their own;
* a required operator's moves are scored as plain tuples, sorted by
  (time, money, entry order) and swept into a Pareto front; only the at
  most ``max_skyline`` moves kept are copied into partials. The idle
  tie-break is scored only for exact (time, money) ties at the head of a
  group that enters the front, in O(1) per move from its parent's two
  largest lease-tail gaps. (Every partial entering a required step holds
  the same number of assignments, because optional operators come last,
  so the reference's -#ops key never separates two moves there.)
* an optional operator settles each parent in one pass: the parent
  becomes its best same-money move — the most sequential idle, the first
  in container order on a tie — or stays as it is. No move is kept as a
  row, sorted or swept, and the move is applied to the parent in place,
  because a parent has exactly one successor in an optional step;
* a partial records its moves as a parent-linked chain of plain
  ``(previous, op name, container, start, end)`` nodes that its copies
  share, so applying a move adds one node. ``Assignment`` objects are
  built once, in placement order, for the partials ``schedule`` returns.

Why the one-pass optional step is exact. The skyline entering a step is
a strict front: ``time_end / tq`` strictly increases and ``money_quanta``
strictly decreases along it, because the sweep admits an entry only when
its money is below every earlier one's, the cap keeps a subsequence, and
an optional step keeps every parent's time and money. An optional move never changes ``time_end``, and it never lowers money:
the new lease end is at least the old one, and a fresh container costs at
least one quantum. So a move that raises money sorts after its parent's
pass-through (same time, more money) and is never admitted. The
same-money moves of a parent P share one key, (t_P, m_P, -(n_P + 1)),
which sorts just ahead of P's pass-through (t_P, m_P, -n_P). Keys differ
across parents, so those moves tie with nothing from another parent. The
front therefore holds exactly one entry per parent, in parent order —
the best same-money move where there is one, else the pass-through — and
the cap never fires.
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

#: One placed move, linked to the partial's previous one: (previous node
#: or ``None``, op name, container, start, end).
_Placed = tuple["_Placed | None", str, int, float, float]


@dataclass
class _Partial:
    """A partial schedule: enough state to branch and to score.

    ``time_end`` tracks only non-optional (dataflow) operators: optional
    index builds never count toward the makespan, but they do extend
    their container's last end (capacity) and are charged in the money
    objective if they spill past the quanta the dataflow already leases —
    which is exactly what makes such schedules dominated and discarded.

    ``placed`` is the newest node of the partial's move chain, which
    copies share (see :attr:`assignments`). ``op_placed`` maps each
    placed operator to its container and end.
    ``containers[c]`` is container ``c``'s (last end, first leased
    quantum, end of its leased quanta, lease tail gap), computed once,
    when a move lands on it; the tail gap runs from the last end to the
    end of the lease. ``money_quanta`` is the total leased quanta over
    all containers, maintained exactly (integer arithmetic) as
    assignments land. ``max_closed_gap`` is the longest idle period that
    can no longer grow — the head gap of each container's lease plus
    every gap between consecutive assignments; only the tail gaps move
    with the lease end.
    """

    placed: _Placed | None = None
    containers: list[tuple[float, int, int, float]] = field(default_factory=list)
    op_placed: dict[str, tuple[int, float]] = field(default_factory=dict)
    time_end: float = 0.0
    money_quanta: int = 0
    max_closed_gap: float = 0.0

    @property
    def assignments(self) -> list[Assignment]:
        """The placed moves as assignments, in placement order."""
        out: list[Assignment] = []
        node = self.placed
        while node is not None:
            node, op_name, cid, start, end = node
            out.append(Assignment(op_name, cid, start, end))
        out.reverse()
        return out

    def branch(self) -> "_Partial":
        return _Partial(
            placed=self.placed,
            containers=self.containers.copy(),
            op_placed=self.op_placed.copy(),
            time_end=self.time_end,
            money_quanta=self.money_quanta,
            max_closed_gap=self.max_closed_gap,
        )


#: One scored move of a required operator, as :meth:`SkylineScheduler._select`
#: sorts it: (time_end / tq, money_quanta, entry index, parent, container,
#: start, end, max_closed_gap). The entry index is unique, so sorting never
#: compares further.
_Move = tuple[float, int, int, _Partial, int, float, float, float]


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
            # Every used container, plus a fresh one under the cap.
            for partial in skyline:
                branched_total += min(len(partial.containers) + 1, self.max_containers)
            if op.optional:
                # Keeping an optional op unscheduled is allowed: each
                # parent's pass-through partial counts as branched too.
                branched_total += len(skyline)
                skyline = [
                    self._branch(partial, op, edges, duration, []) for partial in skyline
                ]
                continue
            rows: list[_Move] = []
            for partial in skyline:
                self._branch(partial, op, edges, duration, rows)
            skyline = [
                self._apply(parent.branch(), op, cid, start, end, money, closed_gap)
                for _, money, _, parent, cid, start, end, closed_gap in self._select(rows)
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
            Schedule(dataflow=dataflow, pricing=self.pricing, assignments=p.assignments)
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

    def _branch(
        self,
        partial: _Partial,
        op: Operator,
        edges: list[Edge],
        duration: float,
        rows: list[_Move],
    ) -> _Partial:
        """Score ``op`` on each candidate container of ``partial``, in
        container order, without copying ``partial``.

        A required ``op`` appends every move to ``rows`` and returns
        ``partial``. An optional ``op`` settles ``partial`` and returns
        it: its best same-money move (the most sequential idle, the first
        in container order on a tie) is applied to it in place, since an
        optional step replaces each parent by exactly one successor;
        when every move raises money, ``partial`` stays as it is. A
        fresh container always raises money, so an optional ``op`` never
        tries one.
        """
        tq = self.pricing.quantum_seconds
        # Ready time on a container holding none of the placed inputs:
        # the largest remote arrival. A container holding some gets its
        # own, from local ends for those and remote arrivals for the rest.
        remote = 0.0
        placed: list[tuple[int, float, float]] = []
        for edge in edges:
            src = partial.op_placed.get(edge.src)
            if src is not None:
                src_cid, src_end = src
                arrival = src_end + edge.data_mb / self.container.net_bw_mb_s
                placed.append((src_cid, src_end, arrival))
                remote = max(remote, arrival)
        held: dict[int, float] = {}
        for holder, _, _ in placed:
            if holder not in held:
                ready = 0.0
                for src_cid, local, arrival in placed:
                    ready = max(ready, local if src_cid == holder else arrival)
                held[holder] = ready
        optional = op.optional
        time_end = partial.time_end
        money = partial.money_quanta
        closed = partial.max_closed_gap
        best: tuple[int, float, float, float] | None = None
        best_idle = -math.inf
        tops: tuple[float, int, float] | None = None
        # Moves are numbered in entry order across the step's parents.
        entry = len(rows)
        for cid, (avail, start_q, old_q, _) in enumerate(partial.containers):
            start = max(held.get(cid, remote), avail)
            end = start + duration
            new_q = max(start_q + 1, math.ceil(end / tq - 1e-9))
            if not optional:
                rows.append((
                    max(time_end, end) / tq, money + (new_q - old_q), entry + cid,
                    partial, cid, start, end, max(closed, start - avail),
                ))
            elif new_q == old_q:
                closed_gap = max(closed, start - avail)
                if tops is None:
                    tops = self._top_tails(partial)
                idle = self._idle(tops, cid, end, closed_gap)
                if idle > best_idle:
                    best, best_idle = (cid, start, end, closed_gap), idle
        if optional:
            if best is None:
                return partial
            cid, start, end, closed_gap = best
            return self._apply(partial, op, cid, start, end, money, closed_gap)
        cid = len(partial.containers)
        if cid < self.max_containers:
            start = remote
            start_q = math.floor(start / tq + 1e-9)
            end = start + duration
            new_q = max(start_q + 1, math.ceil(end / tq - 1e-9))
            # Head gap of a fresh lease: from the quantum boundary the
            # lease starts on to the operator's start.
            rows.append((
                max(time_end, end) / tq, money + (new_q - start_q), entry + cid,
                partial, cid, start, end, max(closed, start - start_q * tq),
            ))
        return partial

    def _apply(
        self,
        out: _Partial,
        op: Operator,
        cid: int,
        start: float,
        end: float,
        money: int,
        closed_gap: float,
    ) -> _Partial:
        """Apply a scored move to ``out`` in place and return it."""
        tq = self.pricing.quantum_seconds
        out.placed = (out.placed, op.name, cid, start, end)
        end_q = math.ceil(end / tq - 1e-9)
        if cid < len(out.containers):
            start_q = out.containers[cid][1]
            out.containers[cid] = (end, start_q, max(start_q + 1, end_q), end_q * tq - end)
        else:
            start_q = math.floor(start / tq + 1e-9)
            out.containers.append((end, start_q, max(start_q + 1, end_q), end_q * tq - end))
        out.op_placed[op.name] = (cid, end)
        if not op.optional:
            out.time_end = max(out.time_end, end)
        out.money_quanta = money
        out.max_closed_gap = closed_gap
        return out

    def _select(self, rows: list[_Move]) -> list[_Move]:
        """Pareto skyline on (time, money) of one required step, capped
        at ``max_skyline``.

        One sort of the moves by (time, money, entry index) puts the best
        candidate of each equal-(time, money) group first. Only that
        candidate can enter the front, and only while its money beats
        every earlier point's. Exact (time, money) ties at the head of
        such a group go to the most sequential idle, then to entry order.
        """
        rows.sort()
        front: list[_Move] = []
        tails: dict[int, tuple[float, int, float]] = {}
        best_money = math.inf
        for k, row in enumerate(rows):
            if row[1] >= best_money:
                continue
            best_money = row[1]
            end = k + 1
            while end < len(rows) and rows[end][0] == row[0] and rows[end][1] == row[1]:
                end += 1
            if end - k > 1:
                best_idle = -math.inf
                for tie in rows[k:end]:
                    parent = tie[3]
                    tops = tails.get(id(parent))
                    if tops is None:
                        tops = tails[id(parent)] = self._top_tails(parent)
                    idle = self._idle(tops, tie[4], tie[6], tie[7])
                    if idle > best_idle:
                        row, best_idle = tie, idle
            front.append(row)
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
        self, tops: tuple[float, int, float], cid: int, end: float, closed_gap: float
    ) -> float:
        """Longest contiguous idle period across containers after a move
        that ends on ``cid`` at ``end`` (the tie-break).

        The closed gaps are carried incrementally. Of the lease tails,
        which still move, a move changes only its own container's, so
        the parent's two largest tails (``tops``) score it in O(1).
        """
        first, first_cid, second = tops
        tq = self.pricing.quantum_seconds
        tail = math.ceil(end / tq - 1e-9) * tq - end
        return max(closed_gap, second if cid == first_cid else first, tail)

    def _top_tails(self, partial: _Partial) -> tuple[float, int, float]:
        """The largest lease-tail gap, its container and the runner-up
        (``-inf`` where there are too few containers)."""
        first = second = -math.inf
        first_cid = -1
        for cid, (_, _, _, tail) in enumerate(partial.containers):
            if tail > first:
                first, first_cid, second = tail, cid, first
            elif tail > second:
                second = tail
        return first, first_cid, second
