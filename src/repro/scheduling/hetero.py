"""Skyline dataflow scheduling over heterogeneous VM types.

Extends Algorithm 4 to a menu of VM flavours: every scheduling step
branches each partial schedule over the used containers *plus one fresh
container of every type*. Faster flavours shrink operator runtimes
(``runtime / cpu_speed``); money is charged per container at its type's
quantum price, so the skyline exposes trade-offs like "lease one large
VM for the critical path and small ones for the stragglers".

This implements the paper's future-work direction ("Future work could
evaluate the benefits of index management for scenarios with
heterogeneous cloud resources"); with a single-type catalog it reduces
exactly to the homogeneous scheduler.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.cloud.pricing import PricingModel
from repro.cloud.vmtypes import VMType, default_vm_catalog
from repro.dataflow.graph import Dataflow
from repro.dataflow.operator import Operator
from repro.scheduling.schedule import Assignment, lease_quanta


@dataclass
class HeteroSchedule:
    """A schedule whose containers carry VM types."""

    dataflow: Dataflow
    pricing: PricingModel
    assignments: list[Assignment]
    container_types: dict[int, VMType]

    def makespan_seconds(self) -> float:
        if not self.assignments:
            return 0.0
        return max(a.end for a in self.assignments) - min(a.start for a in self.assignments)

    def makespan_quanta(self) -> float:
        return self.pricing.quanta(self.makespan_seconds())

    def leased_quanta(self, container_id: int) -> int:
        items = [a for a in self.assignments if a.container_id == container_id]
        if not items:
            raise KeyError(f"container {container_id} is unused")
        first, last = lease_quanta(
            min(a.start for a in items), max(a.end for a in items), self.pricing.quantum_seconds
        )
        return last - first

    def money_dollars(self) -> float:
        total = 0.0
        for cid, vmtype in self.container_types.items():
            total += self.leased_quanta(cid) * vmtype.price_per_quantum
        return total

    def types_used(self) -> dict[str, int]:
        """How many containers of each flavour the schedule leases."""
        counts: dict[str, int] = {}
        for vmtype in self.container_types.values():
            counts[vmtype.name] = counts.get(vmtype.name, 0) + 1
        return counts


@dataclass
class _Partial:
    assignments: tuple[Assignment, ...] = ()
    container_avail: dict[int, float] = field(default_factory=dict)
    container_first: dict[int, float] = field(default_factory=dict)
    container_type: dict[int, int] = field(default_factory=dict)
    op_end: dict[str, float] = field(default_factory=dict)
    op_container: dict[str, int] = field(default_factory=dict)
    time_end: float = 0.0

    def branch(self) -> "_Partial":
        return _Partial(
            assignments=self.assignments,
            container_avail=dict(self.container_avail),
            container_first=dict(self.container_first),
            container_type=dict(self.container_type),
            op_end=dict(self.op_end),
            op_container=dict(self.op_container),
            time_end=self.time_end,
        )


class HeterogeneousSkylineScheduler:
    """Algorithm 4 over a VM-type menu; skyline on (time, dollars)."""

    def __init__(
        self,
        pricing: PricingModel,
        vm_types: list[VMType] | None = None,
        max_containers: int = 100,
        max_skyline: int = 8,
        include_input_transfer: bool = True,
    ) -> None:
        if max_containers <= 0 or max_skyline <= 0:
            raise ValueError("max_containers and max_skyline must be positive")
        self.pricing = pricing
        self.vm_types = vm_types if vm_types is not None else default_vm_catalog()
        if not self.vm_types:
            raise ValueError("need at least one VM type")
        self.max_containers = max_containers
        self.max_skyline = max_skyline
        self.include_input_transfer = include_input_transfer

    def schedule(self, dataflow: Dataflow) -> list[HeteroSchedule]:
        order = [
            name for name in dataflow.topological_order()
            if not dataflow.operators[name].optional
        ]
        skyline: list[_Partial] = [_Partial()]
        for op_name in order:
            op = dataflow.operators[op_name]
            branched: list[_Partial] = []
            for partial in skyline:
                for cid, type_idx in self._candidates(partial):
                    branched.append(self._assign(partial, dataflow, op, cid, type_idx))
            skyline = self._prune(branched)
        return [
            HeteroSchedule(
                dataflow=dataflow,
                pricing=self.pricing,
                assignments=list(p.assignments),
                container_types={
                    cid: self.vm_types[t] for cid, t in p.container_type.items()
                },
            )
            for p in skyline
        ]

    # ------------------------------------------------------------------
    def _candidates(self, partial: _Partial) -> list[tuple[int, int]]:
        used = [(cid, partial.container_type[cid]) for cid in sorted(partial.container_avail)]
        if len(used) < self.max_containers:
            fresh = (max(partial.container_avail) + 1) if partial.container_avail else 0
            used += [(fresh + i, t) for i, t in enumerate(range(len(self.vm_types)))]
        return used

    def _assign(
        self, partial: _Partial, dataflow: Dataflow, op: Operator, cid: int, type_idx: int
    ) -> _Partial:
        vmtype = self.vm_types[type_idx]
        out = partial.branch()
        ready = 0.0
        for edge in dataflow.in_edges(op.name):
            src_end = partial.op_end.get(edge.src)
            if src_end is None:
                continue
            arrival = src_end
            if partial.op_container.get(edge.src) != cid:
                arrival += edge.data_mb / vmtype.spec.net_bw_mb_s
            ready = max(ready, arrival)
        start = max(ready, partial.container_avail.get(cid, 0.0))
        duration = vmtype.runtime_seconds(op.runtime)
        if self.include_input_transfer and op.inputs:
            duration += vmtype.transfer_seconds(op.input_mb())
        end = start + duration
        out.assignments = (*partial.assignments, Assignment(op.name, cid, start, end))
        out.container_avail[cid] = end
        out.container_first.setdefault(cid, start)
        out.container_type.setdefault(cid, type_idx)
        out.op_end[op.name] = end
        out.op_container[op.name] = cid
        out.time_end = max(partial.time_end, end)
        return out

    def _money(self, partial: _Partial) -> float:
        tq = self.pricing.quantum_seconds
        total = 0.0
        for cid, first in partial.container_first.items():
            start_q, end_q = lease_quanta(first, partial.container_avail[cid], tq)
            total += (end_q - start_q) * self.vm_types[partial.container_type[cid]].price_per_quantum
        return total

    def _prune(self, partials: list[_Partial]) -> list[_Partial]:
        if not partials:
            return []
        scored = sorted(
            ((p.time_end, round(self._money(p), 9), p) for p in partials),
            key=lambda s: (s[0], s[1]),
        )
        front: list[_Partial] = []
        best_money = math.inf
        seen: set[tuple[float, float]] = set()
        for time_end, money, p in scored:
            key = (round(time_end, 6), money)
            if money < best_money and key not in seen:
                front.append(p)
                best_money = money
                seen.add(key)
        if len(front) > self.max_skyline:
            if self.max_skyline == 1:
                return [front[0]]
            step = (len(front) - 1) / (self.max_skyline - 1)
            picked = {round(i * step) for i in range(self.max_skyline)}
            front = [front[i] for i in sorted(picked)]
        return front
