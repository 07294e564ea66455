"""Naive oracle implementations the optimised hot paths are tested against.

These are *frozen references*: deliberately simple, recompute-everything
implementations whose correctness is evident from the paper's equations
(or that are verbatim copies of the pre-optimisation code). They are
never imported by ``src/`` — only the differential tests use them — and
they must stay naive: do not "optimise" an oracle.

Contents:

* :func:`oracle_faded_sums` — the O(window) per-decision fold of the
  faded benefit inflows (Eqs. 4/5) that
  :class:`repro.tuning.incremental.IncrementalGainEvaluator` replaces.
* :class:`OracleIncrementalGainEvaluator` — the incremental evaluator as
  it was before its batched pass: one ``faded_sums`` call, rebuild or
  advance per index. ``faded_sums_many`` must return bit-identical sums
  and count identical cache hits, misses and invalidations.
* :class:`OracleSkylineScheduler` — the pre-optimisation Algorithm 4
  scheduler (no dominance prefilter, objectives recomputed from scratch
  at every prune, no topo-order cache). The optimised scheduler must be
  **assignment-identical** to it.
* :func:`oracle_solve_knapsack` — the pre-optimisation branch-and-bound
  (recursive suffix bounds, no memo). The optimised solver must return
  bit-identical solutions.
* :func:`oracle_partition_figures` / :func:`oracle_index_size_mb` — the
  pre-memo per-call arithmetic of :class:`repro.data.index_model.IndexCostModel`.
  The memoised model must return bit-identical figures.
* :func:`oracle_catalog_digest` — the recovery commit record's catalog
  digest, rebuilt from every index's build state. The manager's
  memoised digest must be byte-identical.
* :func:`oracle_sync_snapshot` — a snapshot boundary as the service ran
  it before the writer was forked: chunk, pickle, write, fsync, rename
  and prune, all in the service process. The forked writer must
  publish byte-identical files.
* :class:`OracleGainModel` — Equations 3-5 one index at a time, as
  :class:`repro.tuning.gain.GainModel` evaluated them before its batched
  pass, with its cost-term memos and their cache counting.
  ``GainModel.evaluate_many`` must return equal records and count
  identical cache hits, misses and invalidations.
* :func:`oracle_attach_inputs` / :func:`oracle_uniform` — the workflow
  generators' draws as they were made before batching: one
  ``rng.choice`` per table, one ``rng.integers`` per speedup and one
  ``rng.uniform`` per edge size. Patched into the three generator
  modules, they must produce identical dataflows and leave the RNG in
  the identical state.
"""

from __future__ import annotations

import math
import os
import struct
import zlib
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import numpy as np

from repro.cloud.container import PAPER_CONTAINER, ContainerSpec
from repro.cloud.pricing import PricingModel
from repro.data.catalog import TABLE6_SPEEDUPS, Catalog
from repro.data.index_model import (
    Index,
    IndexCostModel,
    IndexKind,
    IndexPartitionModel,
    IndexSpec,
    btree_fanout,
    btree_size_bytes,
    hash_size_bytes,
    index_record_bytes,
)
from repro.data.table import Partition, Table
from repro.dataflow.generators.base import WorkflowSpec
from repro.dataflow.graph import Dataflow
from repro.dataflow.operator import DataFile, Operator
from repro.interleave.knapsack import (
    KnapsackItem,
    KnapsackSolution,
    fractional_bound,
)
from repro.perf import CacheStats
from repro.recovery.manager import (
    SEGMENT_NAME,
    SNAPSHOT_KEEP,
    RecoveryManager,
    obs_lists,
    segment_chunk,
)
from repro.recovery.snapshot import append_chunk, prune_snapshots, snapshot_path
from repro.scheduling.schedule import Assignment, Schedule
from repro.tuning.gain import GainModel, GainParameters, IndexGain
from repro.tuning.history import DataflowHistory


# ----------------------------------------------------------------------
# Gain oracle: Eqs. 4/5 benefit inflow, recomputed from scratch
# ----------------------------------------------------------------------
def oracle_faded_sums(
    model: GainModel,
    history: DataflowHistory,
    index_name: str,
    now: float,
) -> tuple[float, float, int]:
    """(Σ dc·gtd, Σ dc·Mc·gmd, #in-window samples) by direct summation.

    One ``exp`` per sample per call — exactly the sums
    :meth:`GainModel.evaluate` folds from a sample list, and exactly what
    ``IncrementalGainEvaluator.faded_sums`` maintains incrementally.
    """
    mc = model.pricing.quantum_price
    sum_time = 0.0
    sum_money = 0.0
    count = 0
    for sample in history.samples_for(index_name, now):
        if not model.in_window(sample.age_quanta):
            continue
        dc = model.fading(sample.age_quanta)
        sum_time += dc * sample.time_gain_quanta
        sum_money += dc * mc * sample.money_gain_quanta
        count += 1
    return sum_time, sum_money, count


# ----------------------------------------------------------------------
# Incremental gain oracle: one advance per index (frozen copy)
# ----------------------------------------------------------------------
#: Advances between exact recomputations of the running sums.
_ORACLE_REFRESH_EVERY = 32


class _OracleIndexState:
    """Running sums and sliding window of one index."""

    __slots__ = (
        "version",
        "last_now",
        "consumed",
        "sum_time",
        "sum_money",
        "window",
        "running",
        "future",
        "unordered",
        "advances",
    )

    def __init__(self, version: int, now: float) -> None:
        self.version = version
        self.last_now = now
        self.consumed = 0
        self.sum_time = 0.0
        self.sum_money = 0.0
        self.window: deque[tuple[int, float, float, float]] = deque()
        self.running: list[tuple[int, float, float]] = []
        self.future: list[tuple[int, float, float, float]] = []
        self.unordered = False
        self.advances = 0


class OracleIncrementalGainEvaluator:
    """The incremental evaluator as it was before the batched pass: each
    ``faded_sums`` call rebuilds or advances one index, with its own
    decay factor and its own history lookup. Its rebuild causes are the
    evaluator's, including a window out of ``executed_at`` order."""

    def __init__(self, model: GainModel, history: DataflowHistory) -> None:
        self.model = model
        self.history = history
        self.stats = CacheStats()
        self._states: dict[str, _OracleIndexState] = {}

    def faded_sums(self, index_name: str, now: float) -> tuple[float, float, int]:
        state = self._states.get(index_name)
        if state is None:
            self.stats.miss()
            state = self._rebuild(index_name, now)
        elif state.version != self.history.mutation_version or now < state.last_now:
            self.stats.invalidate()
            state = self._rebuild(index_name, now)
        else:
            self.stats.hit()
            state = self._advance(state, index_name, now)
        head = self.history.head_position
        flat_t = 0.0
        flat_m = 0.0
        alive_flat = 0
        if state.running or state.future:
            mc = self.model.pricing.quantum_price
            for position, gtd, gmd in state.running:
                if position >= head:
                    flat_t += gtd
                    flat_m += mc * gmd
                    alive_flat += 1
            for position, _executed_at, gtd, gmd in state.future:
                if position >= head:
                    flat_t += gtd
                    flat_m += mc * gmd
                    alive_flat += 1
        return (
            state.sum_time + flat_t,
            state.sum_money + flat_m,
            len(state.window) + alive_flat,
        )

    def _rebuild(self, index_name: str, now: float) -> _OracleIndexState:
        history = self.history
        pricing = self.model.pricing
        window_q = self.model.params.window_quanta
        fade = self.model.params.fade_quanta
        mc = pricing.quantum_price
        state = _OracleIndexState(version=history.mutation_version, now=now)
        for position, record in history.entries_for(index_name):
            gtd = record.time_gains.get(index_name, 0.0)
            gmd = record.money_gains.get(index_name, 0.0)
            if record.running:
                state.running.append((position, gtd, gmd))
                continue
            if record.executed_at > now:
                state.future.append((position, record.executed_at, gtd, gmd))
                continue
            age = record.age_quanta(now, pricing)
            if age <= window_q:
                if state.window and record.executed_at < state.window[-1][1]:
                    state.unordered = True
                dc = math.exp(-age / fade)
                state.sum_time += dc * gtd
                state.sum_money += dc * mc * gmd
                state.window.append((position, record.executed_at, gtd, gmd))
        state.consumed = history.end_position
        self._states[index_name] = state
        return state

    def _advance(
        self, state: _OracleIndexState, index_name: str, now: float
    ) -> _OracleIndexState:
        history = self.history
        pricing = self.model.pricing
        window_q = self.model.params.window_quanta
        fade = self.model.params.fade_quanta
        mc = pricing.quantum_price
        if state.unordered or (
            state.future and any(executed_at <= now for _, executed_at, _, _ in state.future)
        ):
            self.stats.invalidate()
            return self._rebuild(index_name, now)
        if now > state.last_now:
            delta_q = pricing.quanta(now - state.last_now)
            decay = math.exp(-delta_q / fade)
            state.sum_time *= decay
            state.sum_money *= decay
        state.last_now = now
        head = history.head_position
        while state.window:
            position, executed_at, gtd, gmd = state.window[0]
            age = max(0.0, pricing.quanta(now - executed_at))
            if position >= head and age <= window_q:
                break
            state.window.popleft()
            dc = math.exp(-age / fade)
            state.sum_time -= dc * gtd
            state.sum_money -= dc * mc * gmd
        if state.running:
            state.running = [e for e in state.running if e[0] >= head]
        if state.future:
            state.future = [e for e in state.future if e[0] >= head]
        for position, record in history.entries_for(index_name, state.consumed):
            gtd = record.time_gains.get(index_name, 0.0)
            gmd = record.money_gains.get(index_name, 0.0)
            if record.running:
                state.running.append((position, gtd, gmd))
                continue
            if record.executed_at > now:
                state.future.append((position, record.executed_at, gtd, gmd))
                continue
            if state.window and record.executed_at < state.window[-1][1]:
                self.stats.invalidate()
                return self._rebuild(index_name, now)
            age = record.age_quanta(now, pricing)
            if age <= window_q:
                dc = math.exp(-age / fade)
                state.sum_time += dc * gtd
                state.sum_money += dc * mc * gmd
                state.window.append((position, record.executed_at, gtd, gmd))
        state.consumed = history.end_position
        state.advances += 1
        if state.advances % _ORACLE_REFRESH_EVERY == 0:
            sum_time = 0.0
            sum_money = 0.0
            for _position, executed_at, gtd, gmd in state.window:
                age = max(0.0, pricing.quanta(now - executed_at))
                dc = math.exp(-age / fade)
                sum_time += dc * gtd
                sum_money += dc * mc * gmd
            state.sum_time = sum_time
            state.sum_money = sum_money
        return state


# ----------------------------------------------------------------------
# Skyline oracle: the pre-optimisation Algorithm 4 (frozen copy)
# ----------------------------------------------------------------------
@dataclass
class _OraclePartial:
    """A partial schedule: enough state to branch and to score."""

    assignments: tuple[Assignment, ...] = ()
    container_avail: dict[int, float] = field(default_factory=dict)
    container_first: dict[int, float] = field(default_factory=dict)
    op_end: dict[str, float] = field(default_factory=dict)
    op_container: dict[str, int] = field(default_factory=dict)
    time_end: float = 0.0

    def branch(self) -> "_OraclePartial":
        return _OraclePartial(
            assignments=self.assignments,
            container_avail=dict(self.container_avail),
            container_first=dict(self.container_first),
            op_end=dict(self.op_end),
            op_container=dict(self.op_container),
            time_end=self.time_end,
        )


class OracleSkylineScheduler:
    """The skyline scheduler exactly as it was before the hot-path work.

    Every branch copies the full partial state, every prune recomputes
    money and idle from the assignment list, and nothing is filtered
    before scoring. Slow, but every step is a direct transcription of
    Algorithm 4 — which is what makes it an oracle.
    """

    def __init__(
        self,
        pricing: PricingModel,
        container: ContainerSpec = PAPER_CONTAINER,
        max_containers: int = 100,
        max_skyline: int = 8,
        include_input_transfer: bool = True,
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

    def schedule(self, dataflow: Dataflow) -> list[Schedule]:
        order = self._ready_order(dataflow)
        skyline: list[_OraclePartial] = [_OraclePartial()]
        for op_name in order:
            op = dataflow.operators[op_name]
            branched: list[_OraclePartial] = []
            if op.optional:
                branched.extend(skyline)  # keeping the op unscheduled is allowed
            for partial in skyline:
                for cid in self._candidate_containers(partial):
                    branched.append(self._assign(partial, dataflow, op, cid))
            skyline = self._prune(branched)
        return [
            Schedule(dataflow=dataflow, pricing=self.pricing, assignments=list(p.assignments))
            for p in skyline
        ]

    @staticmethod
    def _ready_order(dataflow: Dataflow) -> list[str]:
        topo = dataflow.topological_order()
        required = [n for n in topo if not dataflow.operators[n].optional]
        optional = [n for n in topo if dataflow.operators[n].optional]
        return required + optional

    def _candidate_containers(self, partial: _OraclePartial) -> list[int]:
        used = sorted(partial.container_avail)
        if len(used) < self.max_containers:
            fresh = (max(used) + 1) if used else 0
            return used + [fresh]
        return used

    def _assign(
        self, partial: _OraclePartial, dataflow: Dataflow, op: Operator, cid: int
    ) -> _OraclePartial:
        out = partial.branch()
        ready = 0.0
        for edge in dataflow.in_edges(op.name):
            src_end = partial.op_end.get(edge.src)
            if src_end is None:
                continue
            arrival = src_end
            if partial.op_container.get(edge.src) != cid:
                arrival += edge.data_mb / self.container.net_bw_mb_s
            ready = max(ready, arrival)
        start = max(ready, partial.container_avail.get(cid, 0.0))
        duration = op.runtime
        if self.include_input_transfer and op.inputs:
            duration += op.input_mb() / self.container.net_bw_mb_s
        end = start + duration
        out.assignments = (*partial.assignments, Assignment(op.name, cid, start, end))
        out.container_avail[cid] = end
        out.container_first.setdefault(cid, start)
        out.op_end[op.name] = end
        out.op_container[op.name] = cid
        if not op.optional:
            out.time_end = max(partial.time_end, end)
        return out

    def _money_quanta(self, partial: _OraclePartial) -> int:
        tq = self.pricing.quantum_seconds
        total = 0
        for cid, first in partial.container_first.items():
            start_q = math.floor(first / tq + 1e-9)
            end_q = max(start_q + 1, math.ceil(partial.container_avail[cid] / tq - 1e-9))
            total += end_q - start_q
        return total

    def _max_sequential_idle(self, partial: _OraclePartial) -> float:
        tq = self.pricing.quantum_seconds
        per_container: dict[int, list[Assignment]] = {}
        for a in partial.assignments:
            per_container.setdefault(a.container_id, []).append(a)
        best = 0.0
        for cid, items in per_container.items():
            items = sorted(items, key=lambda a: a.start)
            lease_start = math.floor(items[0].start / tq + 1e-9) * tq
            lease_end = math.ceil(max(a.end for a in items) / tq - 1e-9) * tq
            cursor = lease_start
            for a in items:
                best = max(best, a.start - cursor)
                cursor = max(cursor, a.end)
            best = max(best, lease_end - cursor)
        return best

    def _prune(self, partials: list[_OraclePartial]) -> list[_OraclePartial]:
        if not partials:
            return []
        scored = []
        for p in partials:
            time_q = p.time_end / self.pricing.quantum_seconds
            money_q = self._money_quanta(p)
            scored.append([time_q, money_q, -len(p.assignments), 0.0, p])
        groups: dict[tuple[float, int, int], list[list]] = {}
        for row in scored:
            groups.setdefault((round(row[0], 9), row[1], row[2]), []).append(row)
        for rows in groups.values():
            if len(rows) > 1:
                for row in rows:
                    row[3] = -self._max_sequential_idle(row[4])
        scored.sort(key=lambda s: (s[0], s[1], s[2], s[3]))
        front: list[tuple[float, int, _OraclePartial]] = []
        best_money = math.inf
        seen: set[tuple[float, int]] = set()
        for time_q, money_q, _neg_ops, _neg_idle, p in scored:
            key = (round(time_q, 9), money_q)
            if money_q < best_money and key not in seen:
                front.append((time_q, money_q, p))
                best_money = money_q
                seen.add(key)
        if len(front) > self.max_skyline:
            if self.max_skyline == 1:
                front = [front[0]]
            else:
                step = (len(front) - 1) / (self.max_skyline - 1)
                picked = {round(i * step) for i in range(self.max_skyline)}
                front = [front[i] for i in sorted(picked)]
        return [p for _, _, p in front]


# ----------------------------------------------------------------------
# Knapsack oracle: the pre-optimisation branch-and-bound (frozen copy)
# ----------------------------------------------------------------------
def oracle_solve_knapsack(
    items: list[KnapsackItem],
    capacity: float,
    max_nodes: int = 200_000,
) -> KnapsackSolution:
    """Branch-and-bound exactly as shipped before the array-based DFS.

    Suffix bounds re-walk ``order[depth:]`` per node and paths are built
    as tuples — the float accumulation order the optimised solver must
    preserve bit for bit.
    """
    if capacity < 0:
        raise ValueError("capacity must be non-negative")
    fit = [it for it in items if it.size <= capacity + 1e-12]
    if not fit:
        return KnapsackSolution(selected=(), total_gain=0.0, total_size=0.0, lp_bound=0.0)
    order = sorted(fit, key=_density, reverse=True)
    lp_bound = fractional_bound(order, capacity)

    def suffix_bound(depth: int, room: float) -> float:
        value = 0.0
        for item in order[depth:]:
            if item.size <= 0:
                value += item.gain
            elif item.size <= room:
                value += item.gain
                room -= item.size
            else:
                value += item.gain * (room / item.size)
                break
        return value

    best_gain = -1.0
    best_set: tuple[int, ...] = ()
    best_size = 0.0
    nodes = 0

    stack: list[tuple[int, float, float, tuple[int, ...]]] = [(0, 0.0, 0.0, ())]
    while stack:
        depth, used, gain, chosen = stack.pop()
        nodes += 1
        if gain > best_gain:
            best_gain, best_set, best_size = gain, chosen, used
        if depth >= len(order) or nodes > max_nodes:
            continue
        bound = gain + suffix_bound(depth, capacity - used)
        if bound <= best_gain + 1e-12:
            continue
        item = order[depth]
        stack.append((depth + 1, used, gain, chosen))
        if used + item.size <= capacity + 1e-12:
            stack.append((depth + 1, used + item.size, gain + item.gain, (*chosen, item.item_id)))

    return KnapsackSolution(
        selected=best_set,
        total_gain=max(best_gain, 0.0),
        total_size=best_size,
        lp_bound=lp_bound,
    )


def _density(item: KnapsackItem) -> float:
    if item.size <= 0:
        return float("inf")
    return item.gain / item.size


# ----------------------------------------------------------------------
# Simulator oracle: the scalar dataflow phase of execute() (frozen copy)
# ----------------------------------------------------------------------
def oracle_dataflow_phase(
    dataflow: Dataflow,
    assignments: list[Assignment],
    durations: list[float],
    pricing: PricingModel,
    container: ContainerSpec = PAPER_CONTAINER,
) -> tuple[dict[str, float], dict[str, float], float, int, dict[int, tuple[float, float]]]:
    """Phase 1 of ``ExecutionSimulator.execute`` plus its lease loop.

    A direct transcription of the fault-free scalar walk: assignments
    must already be in the simulator's processing order
    (``sorted(key=lambda a: (a.start, a.end))``) and ``durations`` are
    the noise-adjusted runtimes, one per assignment in that order (noise
    policy is the caller's — drawing it outside keeps the oracle free of
    RNG state). Returns ``(op_starts, op_ends, makespan, money_quanta,
    leases)``; ``ExecutionSimulator._dataflow_phase`` must match every
    value bit for bit.
    """
    avail: dict[int, float] = {}
    op_start: dict[str, float] = {}
    op_end: dict[str, float] = {}
    op_container: dict[str, int] = {}
    busy: dict[int, list[tuple[float, float]]] = {}
    for a, duration in zip(assignments, durations):
        ready = 0.0
        for edge in dataflow.in_edges(a.op_name):
            src_end = op_end.get(edge.src)
            if src_end is None:
                continue
            arrival = src_end
            if op_container.get(edge.src) != a.container_id:
                arrival += edge.data_mb / container.net_bw_mb_s
            ready = max(ready, arrival)
        start = max(ready, avail.get(a.container_id, 0.0))
        end = start + duration
        avail[a.container_id] = end
        op_start[a.op_name] = start
        op_end[a.op_name] = end
        op_container[a.op_name] = a.container_id
        busy.setdefault(a.container_id, []).append((start, end))
    makespan = max((e for ivs in busy.values() for _, e in ivs), default=0.0)
    tq = pricing.quantum_seconds
    leases: dict[int, tuple[float, float]] = {}
    money_quanta = 0
    for cid, intervals in busy.items():
        first = min(s for s, _ in intervals)
        last = max(e for _, e in intervals)
        lease_start = math.floor(first / tq + 1e-9) * tq
        lease_end = max(lease_start + tq, math.ceil(last / tq - 1e-9) * tq)
        leases[cid] = (lease_start, lease_end)
        money_quanta += int(round((lease_end - lease_start) / tq))
    return op_start, op_end, makespan, money_quanta, leases


# ----------------------------------------------------------------------
# Index-savings oracle: Algorithm 2 lines 1-5 attribution, re-derived
# ----------------------------------------------------------------------
def oracle_index_savings(
    dataflow: Dataflow,
    available: set[str],
    fractions: dict[str, float] | None = None,
) -> dict[str, float]:
    """Runtime seconds each index saves, re-derived from first principles.

    Mirrors the attribution of
    :func:`repro.interleave.lp.update_runtimes_for_indexes` without
    using any of the ``Operator`` helper methods: the per-file weights,
    effective speedup factors and the best-index selection are all
    recomputed inline, so a bookkeeping bug in the helpers cannot hide
    in both sides of the comparison. Must be called on the dataflow
    *before* the production function mutates it.
    """
    savings: dict[str, float] = {}
    for op in dataflow.operators.values():
        if not op.index_speedup or not op.inputs:
            continue
        total_mb = sum(f.size_mb for f in op.inputs)
        if total_mb <= 0:
            weights = {f.name: 1.0 / len(op.inputs) for f in op.inputs}
        else:
            weights = {f.name: f.size_mb / total_mb for f in op.inputs}
        # The production path skips operators whose runtime would not
        # actually improve; re-derive that guard from the same factors.
        new_runtime = 0.0
        factors: dict[str, tuple[str | None, float]] = {}
        for data_file in op.inputs:
            best_name: str | None = None
            best = 1.0
            for index_name, speedup in op.index_speedup.items():
                if not index_name.startswith(f"{data_file.name}__"):
                    continue
                if index_name not in available or speedup <= 1.0:
                    continue
                fraction = 1.0 if fractions is None else fractions.get(index_name, 1.0)
                fraction = min(max(fraction, 0.0), 1.0)
                effective = 1.0 / ((1.0 - fraction) + fraction / speedup)
                if effective > best:
                    best_name, best = index_name, effective
            factors[data_file.name] = (best_name, best)
            new_runtime += op.runtime * weights[data_file.name] / best
        if new_runtime >= op.runtime:
            continue
        for data_file in op.inputs:
            index_name, factor = factors[data_file.name]
            if index_name is None or factor <= 1.0:
                continue
            saved_s = op.runtime * weights.get(data_file.name, 0.0) * (1.0 - 1.0 / factor)
            savings[index_name] = savings.get(index_name, 0.0) + saved_s
    return savings


# ----------------------------------------------------------------------
# Index-model oracle: Section 3 figures, recomputed on every call
# ----------------------------------------------------------------------
def _oracle_key_bytes(table: Table, spec: IndexSpec) -> float:
    return sum(table.statistics.field_bytes(c) for c in spec.columns)


def _oracle_partition_size_mb(table: Table, spec: IndexSpec, partition: Partition) -> float:
    key = _oracle_key_bytes(table, spec)
    if spec.kind is IndexKind.HASH:
        size = hash_size_bytes(partition.num_records, key)
    else:
        size = btree_size_bytes(partition.num_records, key)
    return size / (1024.0 * 1024.0)


def oracle_partition_figures(
    table: Table,
    spec: IndexSpec,
    partition: Partition,
    container: ContainerSpec = PAPER_CONTAINER,
) -> IndexPartitionModel:
    """Size, build time and IO time of one index partition, from scratch.

    A frozen copy of the per-call ``partition_size_mb``, ``io_seconds``
    and ``build_seconds`` of ``IndexCostModel`` before it memoised each
    index: the key width, the record width and the B+tree fanout are
    re-derived on every call.
    """
    size_mb = _oracle_partition_size_mb(table, spec, partition)
    part_mb = partition.num_records * table.statistics.record_bytes() / (1024.0 * 1024.0)
    idx_mb = _oracle_partition_size_mb(table, spec, partition)
    io_seconds = (part_mb + idx_mb) / container.net_bw_mb_s
    n = partition.num_records
    if n <= 1:
        build_seconds = 0.0
    else:
        rec = index_record_bytes(_oracle_key_bytes(table, spec))
        k = btree_fanout(rec)
        build_seconds = spec.build_constant * n * math.log(n, k)
    return IndexPartitionModel(
        partition_id=partition.partition_id,
        num_records=n,
        size_mb=size_mb,
        build_seconds=build_seconds,
        io_seconds=io_seconds,
    )


def oracle_index_size_mb(table: Table, spec: IndexSpec) -> float:
    """Whole-index size: the builtin ``sum()`` of the per-partition sizes,
    in ``table.partitions`` order."""
    return sum(_oracle_partition_size_mb(table, spec, p) for p in table.partitions)


# ----------------------------------------------------------------------
# Recovery commit oracle: the catalog digest, rebuilt from scratch
# ----------------------------------------------------------------------
def oracle_catalog_digest(catalog: Catalog) -> str:
    """8-hex digest over every index's build-state digest, from scratch.

    A frozen copy of ``RecoveryManager._catalog_digest`` and of the body
    of ``Index.state_digest`` before the manager memoised each index's
    digest: every partition's state is re-read at every call.
    """
    parts = []
    for name in sorted(catalog.indexes):
        index = catalog.indexes[name]
        fields = [f"{index.name}:{index.build_version}"]
        for pid in sorted(index.partitions):
            st = index.partitions[pid]
            fields.append(
                f"{pid}:{int(st.built)}:{st.built_at!r}:"
                f"{st.table_version}:{st.checkpoint_seconds!r}"
            )
        parts.append(f"{zlib.crc32('|'.join(fields).encode('utf-8')):08x}")
    return f"{zlib.crc32('|'.join(parts).encode('ascii')):08x}"


# ----------------------------------------------------------------------
# Recovery snapshot oracle: the synchronous writer
# ----------------------------------------------------------------------
def oracle_sync_snapshot(
    manager: RecoveryManager, service: Any, state: Any, t: float, directory: Path
) -> Path:
    """One snapshot boundary, written in the calling process.

    A frozen copy of ``RecoveryManager._snapshot`` and the body of
    ``write_snapshot`` before the writer was forked: the obs bookkeeping,
    the segment chunk appended to the manager's segment, then the
    pickled run written to ``directory`` (tmp, fsync, ``os.replace``),
    pruned, and the sidecar. Returns the published path.
    """
    service.obs.metrics.counter("recovery/snapshots_written").inc()
    service.obs.journal.emit(
        "recovery_snapshot", t=t, iteration=state.i, wal_position=manager.position
    )
    lists = obs_lists(service.obs)
    if lists is not None:
        chunk = segment_chunk(lists, manager._obs_counts)
        manager._segment_bytes += append_chunk(manager.directory / SEGMENT_NAME, chunk)
        manager._obs_counts = (len(lists[0]), len(lists[1]), len(lists[2]))
    payload = manager._dumps(service, state, lists)
    final = snapshot_path(directory, state.i)
    tmp = final.with_suffix(".tmp")
    blob = b"RPSN1\n" + struct.pack(">I", zlib.crc32(payload)) + payload
    with open(tmp, "wb") as file:
        file.write(blob)
        file.flush()
        os.fsync(file.fileno())
    os.replace(tmp, final)
    prune_snapshots(directory, SNAPSHOT_KEEP)
    manager._save_sidecar()
    return final


# ----------------------------------------------------------------------
# Gain oracle: Eqs. 3-5 one index at a time, before the batched pass
# ----------------------------------------------------------------------
class OracleGainModel:
    """Equations 3-5 per index, as ``GainModel`` evaluated them before
    ``evaluate_many``: one ``evaluate_from_sums`` call per index, two
    memo calls each counting its own hit, and a dataclass-style keyword
    construction of every record."""

    def __init__(
        self, pricing: PricingModel, cost_model: IndexCostModel, params: GainParameters
    ) -> None:
        self.pricing = pricing
        self.cost_model = cost_model
        self.params = params
        self.cost_stats = CacheStats()
        self._build_time_cache: dict[str, tuple[int, float]] = {}
        self._storage_cache: dict[str, float] = {}

    def build_time_quanta(self, index: Index) -> float:
        cached = self._build_time_cache.get(index.name)
        if cached is not None and cached[0] == index.build_version:
            self.cost_stats.hit()
            return cached[1]
        self.cost_stats.miss()
        table, spec = index.table, index.spec
        value = self.pricing.quanta(
            sum(
                self.cost_model.partition_model(table, spec, table.partition(pid)).total_build_seconds
                for pid in index.unbuilt_partition_ids()
            )
        )
        self._build_time_cache[index.name] = (index.build_version, value)
        return value

    def invalidate_index(self, index_name: str) -> None:
        if self._build_time_cache.pop(index_name, None) is not None:
            self.cost_stats.invalidate()

    def storage_cost_dollars(self, index: Index) -> float:
        cached = self._storage_cache.get(index.name)
        if cached is not None:
            self.cost_stats.hit()
            return cached
        self.cost_stats.miss()
        value = self.cost_model.storage_cost_dollars(
            index.table, index.spec, self.params.storage_window_quanta
        )
        self._storage_cache[index.name] = value
        return value

    def evaluate_from_sums(
        self,
        index: Index,
        faded_time_quanta: float,
        faded_money_dollars: float,
        samples_in_window: int,
    ) -> IndexGain:
        build_time = self.build_time_quanta(index)
        build_cost = self.pricing.quantum_price * build_time
        storage_cost = self.storage_cost_dollars(index)
        gt = faded_time_quanta - build_time
        gm = faded_money_dollars - (build_cost + storage_cost)
        alpha = self.params.alpha
        combined = alpha * self.pricing.quantum_price * gt + (1.0 - alpha) * gm
        return IndexGain(
            index_name=index.name,
            time_gain_quanta=gt,
            money_gain_dollars=gm,
            combined_dollars=combined,
            delete_threshold_quanta=self.params.delete_threshold_quanta,
            faded_time_quanta=faded_time_quanta,
            faded_money_dollars=faded_money_dollars,
            build_time_quanta=build_time,
            build_cost_dollars=build_cost,
            storage_cost_dollars=storage_cost,
            fade_quanta=self.params.fade_quanta,
            samples=samples_in_window,
        )


# ----------------------------------------------------------------------
# Generator oracle: one numpy call per draw, before the batched draws
# ----------------------------------------------------------------------
def _oracle_sample_speedup(rng: np.random.Generator) -> float:
    values = list(TABLE6_SPEEDUPS.values())
    return float(values[rng.integers(0, len(values))])


def oracle_attach_inputs(
    dataflow: Dataflow,
    entry_ops: list[Operator],
    spec: WorkflowSpec,
    rng: np.random.Generator,
) -> None:
    """``attach_inputs`` as it drew before batching: one ``choice`` per
    table, then one ``integers`` per chosen index's speedup."""
    if not entry_ops:
        raise ValueError("a dataflow needs at least one entry operator")
    for i, (table, size_mb) in enumerate(zip(spec.tables, spec.table_sizes_mb)):
        op = entry_ops[i % len(entry_ops)]
        op.inputs = (*op.inputs, DataFile(name=table, size_mb=size_mb))
        if op.reads_table is None:
            op.reads_table = table
        dataflow.input_tables.add(table)
        index_names = spec.indexes_per_table.get(table, [])
        if not index_names:
            continue
        count = min(spec.indexes_per_dataflow, len(index_names))
        chosen = rng.choice(len(index_names), size=count, replace=False)
        for j in chosen:
            name = index_names[int(j)]
            op.index_speedup[name] = _oracle_sample_speedup(rng)
            dataflow.candidate_indexes.add(name)


def oracle_uniform(rng: np.random.Generator, low: float, high: float) -> float:
    """One edge-size draw as the generators made it before batching."""
    return float(rng.uniform(low, high))
