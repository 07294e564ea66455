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
* an operator's ready time on a container that holds none of its placed
  inputs is the largest remote arrival; it is computed once per parent,
  and only containers holding an input get their own;
* a required operator's moves are scored as plain tuples, sorted by
  (time, money, entry order) and swept into a Pareto front; only the at
  most ``max_skyline`` moves kept are copied into partials. The scoring
  loop compares floats directly where the reference called ``max``,
  picking the operand ``max`` picks, so every score is the same float.
  The idle tie-break is scored only for exact (time, money) ties at the
  head of a group that enters the front, in O(1) per move from its
  parent's two largest lease-tail gaps. (Every partial entering a
  required step holds the same number of assignments, because optional
  operators come last, so the reference's -#ops key never separates two
  moves there.)
* the optional operators, which come last, are settled per parent in one
  call, in operator order: at each, the parent becomes its best
  same-money move — the most sequential idle, the first in container
  order on a tie — or stays as it is. No move is kept as a row, sorted
  or swept, and the move is applied to the parent in place. Candidate
  containers come from an index over the parent's lease slack, and the
  scan stops early once no later container can score higher (below);
* a partial records its moves as a parent-linked chain of plain
  ``(previous, op name, container, start, end)`` nodes that its copies
  share, so applying a move adds one node. ``Assignment`` objects are
  built once, in placement order, for the partials ``schedule`` returns.

Why the per-parent optional settle is exact. The skyline entering a step
is a strict front: ``time_end / tq`` strictly increases and
``money_quanta`` strictly decreases along it, because the sweep admits an
entry only when its money is below every earlier one's, the cap keeps a
subsequence, and an optional step keeps every parent's time and money.
An optional move never changes ``time_end``, and it never lowers money:
the new lease end is at least the old one, and a fresh container costs at
least one quantum. So a move that raises money sorts after its parent's
pass-through (same time, more money) and is never admitted. The
same-money moves of a parent P share one key, (t_P, m_P, -(n_P + 1)),
which sorts just ahead of P's pass-through (t_P, m_P, -n_P). Keys differ
across parents, so those moves tie with nothing from another parent. The
front therefore holds exactly one entry per parent, in parent order —
the best same-money move where there is one, else the pass-through — and
the cap never fires. Each parent thus has exactly one successor at every
optional step, computed from that parent alone, and optional operators
come after every required one; so settling one parent through the whole
run of optional operators gives the same partials, in the same order, as
settling every parent one operator at a time. An optional move opens no
container, so ``scheduler/partials_branched`` still adds, per optional
operator, every used container, a fresh one under the cap, and the
pass-through of each parent.

Why the slack index drops no fitting container. A container's lease
slack is ``old_q * tq - avail``: its leased end minus its last end. A
move starts at ``start >= avail``, so it keeps the lease end (the fit
test ``new_q == old_q``) only if ``avail + duration`` reaches at most
``old_q * tq`` plus the test's tolerance, ``1e-9`` of a quantum. Slack at
least ``duration - margin`` is therefore necessary, with ``margin`` that
tolerance plus a bound on the rounding in the fit test and in the slack:
``1e-12`` of the partial's latest lease end, many times the few units in
the last place either can be off by. A fixed margin is wrong: a build
that overruns its slack by 2 µs fits an hour-long quantum (tolerance
3.6 µs). A bisect over the prefix max of the slacks finds the first
container that passes; the unchanged fit test and idle score then decide
every container that passes, in container order, keeping the first on a
tie. A move keeps its container's lease end, so after it only that
container's slack, the prefix max from it on and the two largest tails
change.

Why the early exit is exact. For a build without in-edges a move starts
at ``avail``, so its closed gap stays the parent's ``closed``. Its score
is then ``max(closed, the largest other tail, its new tail)``, and the new
tail is at most its slack minus the duration, up to the same rounding.
No container can score more than ``max(closed, first, max slack -
duration + margin)``, with ``first`` the parent's largest tail; once the
best score reaches that, no later container scores strictly higher, so
the scan stops. The bound must use slack, not tail: a zero-runtime
operator alone on a container at a quantum boundary leaves a lease that
runs a quantum past its stored tail of zero. A build with in-edges can
open a closed gap, so it scans every container that passes the filter.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, field
from itertools import accumulate

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
        operators = dataflow.operators
        skyline: list[_Partial] = [_Partial()]
        branched_total = 0
        for position, op_name in enumerate(order):
            op = operators[op_name]
            if op.optional:
                # Optional operators come last, and each of their steps
                # gives every parent exactly one successor, so each parent
                # settles the whole run of them on its own.
                steps = [(operators[n], in_edges[n], durations[n]) for n in order[position:]]
                for partial in skyline:
                    # Per step: every used container, a fresh one under
                    # the cap, and the pass-through. An optional move
                    # never opens a container, so the count is the same
                    # at every step.
                    branched_total += len(steps) * (
                        min(len(partial.containers) + 1, self.max_containers) + 1
                    )
                    self._settle(partial, steps)
                break
            rows: list[_Move] = []
            for partial in skyline:
                # Every used container, plus a fresh one under the cap.
                branched_total += min(len(partial.containers) + 1, self.max_containers)
                self._branch(partial, in_edges[op_name], durations[op_name], rows)
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

    def _ready_times(
        self, partial: _Partial, edges: list[Edge]
    ) -> tuple[float, dict[int, float]]:
        """An operator's ready time on a container holding none of its
        placed inputs (the largest remote arrival), and on each container
        holding some (local ends for those, remote arrivals for the rest).

        Each ``if x > best: best = x`` keeps the operand ``max`` keeps.
        """
        remote = 0.0
        held: dict[int, float] = {}
        if not edges:
            return remote, held
        placed: list[tuple[int, float, float]] = []
        for edge in edges:
            src = partial.op_placed.get(edge.src)
            if src is not None:
                src_cid, src_end = src
                arrival = src_end + edge.data_mb / self.container.net_bw_mb_s
                placed.append((src_cid, src_end, arrival))
                if arrival > remote:
                    remote = arrival
        for holder, _, _ in placed:
            if holder not in held:
                ready = 0.0
                for src_cid, local, arrival in placed:
                    at = local if src_cid == holder else arrival
                    if at > ready:
                        ready = at
                held[holder] = ready
        return remote, held

    def _branch(
        self, partial: _Partial, edges: list[Edge], duration: float, rows: list[_Move]
    ) -> None:
        """Score a required operator on each candidate container of
        ``partial``, in container order, appending every move to ``rows``
        without copying ``partial``.

        Each conditional expression in the loop stands in for a ``max``
        call and returns the operand ``max`` returns, so the scores are
        the same floats.
        """
        tq = self.pricing.quantum_seconds
        ceil = math.ceil
        append = rows.append
        remote, held = self._ready_times(partial, edges)
        containers = partial.containers
        readies = [remote] * len(containers)
        for holder, ready in held.items():
            readies[holder] = ready
        time_end = partial.time_end
        money = partial.money_quanta
        closed = partial.max_closed_gap
        # Moves are numbered in entry order across the step's parents.
        entry = len(rows)
        for cid, ((avail, start_q, old_q, _), ready) in enumerate(zip(containers, readies)):
            start = avail if avail > ready else ready
            end = start + duration
            new_q = ceil(end / tq - 1e-9)
            if new_q <= start_q:
                new_q = start_q + 1
            gap = start - avail
            append((
                (end if end > time_end else time_end) / tq, money + (new_q - old_q),
                entry + cid, partial, cid, start, end, gap if gap > closed else closed,
            ))
        cid = len(containers)
        if cid < self.max_containers:
            start = remote
            start_q = math.floor(start / tq + 1e-9)
            end = start + duration
            new_q = max(start_q + 1, ceil(end / tq - 1e-9))
            # Head gap of a fresh lease: from the quantum boundary the
            # lease starts on to the operator's start.
            append((
                max(time_end, end) / tq, money + (new_q - start_q), entry + cid,
                partial, cid, start, end, max(closed, start - start_q * tq),
            ))

    def _settle(
        self, partial: _Partial, steps: list[tuple[Operator, list[Edge], float]]
    ) -> None:
        """Settle ``partial`` over a run of optional operators, in order.

        Each operator moves ``partial`` in place to its best same-money
        move (the most sequential idle, the first in container order on a
        tie), or leaves it as it is when every move raises money. A fresh
        container always raises money, so none is tried. Candidates come
        from an index over the containers' lease slack; the module
        docstring shows why the filter and the early exit are exact.
        """
        containers = partial.containers
        if not containers:
            return
        tq = self.pricing.quantum_seconds
        ceil = math.ceil
        # Lease slack per container and its prefix max, for the bisect.
        slack = [old_q * tq - avail for avail, _, old_q, _ in containers]
        reach = list(accumulate(slack, max))
        # The fit test's tolerance, plus a bound on rounding in it and in
        # the slack. No move changes a lease end, so neither does this.
        margin = 1e-9 * tq + 1e-12 * max(old_q for _, _, old_q, _ in containers) * tq
        tops = self._top_tails(partial)
        money = partial.money_quanta
        for op, edges, duration in steps:
            need = duration - margin
            first = bisect_left(reach, need)
            if first == len(containers):
                continue
            remote, held = self._ready_times(partial, edges)
            closed = partial.max_closed_gap
            # Without in-edges a move leaves the closed gap as it is, so
            # no move scores above this; with them, scan every candidate.
            bound = math.inf if edges else max(closed, tops[0], reach[-1] - need)
            best: tuple[int, float, float, float] | None = None
            best_idle = -math.inf
            for cid in range(first, len(containers)):
                if slack[cid] < need:
                    continue
                avail, start_q, old_q, _ = containers[cid]
                ready = held.get(cid, remote)
                start = avail if avail > ready else ready
                end = start + duration
                if max(start_q + 1, ceil(end / tq - 1e-9)) != old_q:
                    continue
                gap = start - avail
                closed_gap = gap if gap > closed else closed
                idle = self._idle(tops, cid, end, closed_gap)
                if idle > best_idle:
                    best, best_idle = (cid, start, end, closed_gap), idle
                    if best_idle >= bound:
                        break
            if best is None:
                continue
            cid, start, end, closed_gap = best
            old_tail = containers[cid][3]
            self._apply(partial, op, cid, start, end, money, closed_gap)
            slack[cid] = containers[cid][2] * tq - end
            run = reach[cid - 1] if cid else -math.inf
            for j in range(cid, len(containers)):
                if slack[j] > run:
                    run = slack[j]
                if reach[j] == run:
                    break  # the prefix max from here on is unchanged
                reach[j] = run
            tops = self._retop(partial, tops, cid, old_tail)

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

    def _retop(
        self, partial: _Partial, tops: tuple[float, int, float], cid: int, old_tail: float
    ) -> tuple[float, int, float]:
        """``tops`` after a move changed container ``cid``'s tail from
        ``old_tail``; a rescan only when the first or the runner-up may
        have shrunk.

        :meth:`_idle` reads ``tops`` only as the largest tail of the
        containers other than the moved one, so where the largest tail is
        shared, which of its holders is named does not matter.
        """
        first, first_cid, second = tops
        tail = partial.containers[cid][3]
        if tail < old_tail:
            if cid == first_cid or old_tail >= second:
                return self._top_tails(partial)
            return tops
        if cid == first_cid:
            return tail, cid, second
        if tail > first:
            return tail, cid, first
        if tail > second:
            return first, first_cid, tail
        return tops

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
