"""Property-based tests: scheduler invariants on random DAGs."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cloud.pricing import PAPER_PRICING
from repro.dataflow.graph import Dataflow
from repro.dataflow.operator import Operator
from repro.interleave.lp import lp_interleave
from repro.interleave.slots import BuildCandidate
from repro.scheduling.online_lb import OnlineLoadBalanceScheduler
from repro.scheduling.schedule import (
    Assignment,
    IdleSlot,
    Schedule,
    lease_quanta,
    quantum_gaps,
)
from repro.scheduling.skyline import SkylineScheduler


@st.composite
def random_dags(draw):
    """Random layered DAGs with 3-18 operators."""
    num_ops = draw(st.integers(min_value=3, max_value=18))
    runtimes = draw(
        st.lists(
            st.floats(min_value=1.0, max_value=300.0),
            min_size=num_ops, max_size=num_ops,
        )
    )
    flow = Dataflow(name="rand")
    for i, runtime in enumerate(runtimes):
        flow.add_operator(Operator(name=f"op{i}", runtime=runtime))
    # Edges only from lower to higher indices: acyclic by construction.
    edge_seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    rng = np.random.default_rng(edge_seed)
    for j in range(1, num_ops):
        for i in range(j):
            if rng.random() < 0.25:
                flow.add_edge(f"op{i}", f"op{j}", data_mb=float(rng.uniform(0, 50)))
    return flow


@given(flow=random_dags(), cap=st.integers(min_value=1, max_value=6))
@settings(max_examples=40, deadline=None)
def test_property_skyline_schedules_always_feasible(flow, cap):
    scheduler = SkylineScheduler(PAPER_PRICING, max_skyline=cap, max_containers=8)
    skyline = scheduler.schedule(flow)
    assert skyline, "scheduler must return at least one schedule"
    for schedule in skyline:
        schedule.validate(net_bw_mb_s=125.0)
        # Objectives are sane.
        assert schedule.makespan_seconds() >= max(
            op.runtime for op in flow.operators.values()
        ) - 1e-6
        assert schedule.money_quanta() >= 1
        # Fragmentation is non-negative and bounded by the leased time.
        frag = schedule.fragmentation_quanta()
        assert -1e-9 <= frag <= schedule.money_quanta()


@given(flow=random_dags())
@settings(max_examples=30, deadline=None)
def test_property_makespan_bounds(flow):
    """Any schedule's makespan lies between the critical path and the
    fully serial execution plus all transfer delays."""
    skyline = SkylineScheduler(
        PAPER_PRICING, max_skyline=8, max_containers=4
    ).schedule(flow)
    lb = OnlineLoadBalanceScheduler(PAPER_PRICING, num_containers=4).schedule(flow)
    lower = flow.critical_path()
    transfers = sum(e.data_mb for e in flow.edges) / 125.0
    upper = flow.total_runtime() + transfers
    for schedule in [lb, *skyline]:
        assert lower - 1e-6 <= schedule.makespan_seconds() <= upper + 1e-6


@given(
    flow=random_dags(),
    durations=st.lists(
        st.floats(min_value=1.0, max_value=120.0), min_size=1, max_size=20
    ),
)
@settings(max_examples=30, deadline=None)
def test_property_interleaving_never_hurts(flow, durations):
    """Whatever the build candidates, LP interleaving leaves the
    dataflow's time and money untouched and never double-books."""
    candidates = [
        BuildCandidate(index_name=f"t{i}__c", partition_id=0, duration_s=d, gain=d)
        for i, d in enumerate(durations)
    ]
    scheduler = SkylineScheduler(PAPER_PRICING, max_skyline=3, max_containers=6)
    for inter in lp_interleave(flow, candidates, scheduler):
        combined = inter.combined()
        combined.validate(require_all_assigned=False)
        assert combined.makespan_seconds() == pytest.approx(
            inter.schedule.makespan_seconds()
        )
        assert combined.money_quanta() == inter.schedule.money_quanta()
        # A build is placed at most once.
        names = [a.op_name for a in inter.build_assignments]
        assert len(names) == len(set(names))


TQ = PAPER_PRICING.quantum_seconds


@st.composite
def leases_with_busy(draw):
    """A lease on the quantum grid and busy intervals in and around it."""
    first = draw(st.integers(min_value=0, max_value=20))
    quanta = draw(st.integers(min_value=1, max_value=5))
    lease_start, lease_end = first * TQ, (first + quanta) * TQ
    instant = st.floats(min_value=lease_start - TQ, max_value=lease_end + TQ)
    busy = draw(st.lists(st.tuples(instant, instant).map(sorted).map(tuple), max_size=8))
    return lease_start, lease_end, busy


def _busy_inside(busy, lease_start, lease_end):
    """Length of the union of the busy intervals, clipped to the lease."""
    total, cursor = 0.0, lease_start
    for start, end in sorted(busy):
        start, end = max(start, cursor), min(end, lease_end)
        if end > start:
            total += end - start
            cursor = end
    return total


@given(case=leases_with_busy())
@settings(max_examples=300, deadline=None, derandomize=True)
def test_property_quantum_gaps_tile_the_idle_lease(case):
    """The idle pieces planner and simulator share are sorted, disjoint,
    inside the lease, clear of every busy interval and of every quantum
    boundary, and with the busy time they fill the whole lease."""
    lease_start, lease_end, busy = case
    pieces = quantum_gaps(busy, lease_start, lease_end, TQ)
    tol = 1e-6
    for (_, end), (start, _) in zip(pieces, pieces[1:]):
        assert end <= start + tol
    for start, end in pieces:
        assert lease_start - tol <= start < end <= lease_end + tol
        for b_start, b_end in busy:
            assert min(end, b_end) - max(start, b_start) <= tol
        next_boundary = (math.floor((start + tol) / TQ) + 1) * TQ
        assert end <= next_boundary + tol
    idle = sum(end - start for start, end in pieces)
    assert idle + _busy_inside(busy, lease_start, lease_end) == pytest.approx(
        lease_end - lease_start, abs=tol
    )


@st.composite
def schedules_with_builds(draw):
    """Dataflow and build assignments on a few containers, in any order.

    Builds land on the dataflow's containers and on two of their own, so
    some containers hold builds only. A build is registered on the
    dataflow (the online interleaver's shape) or not (the LP packer's
    combined schedule); either way it does not set a lease it shares.
    """
    flow = Dataflow(name="leases")
    containers = draw(st.integers(min_value=1, max_value=4))
    instant = st.floats(min_value=0.0, max_value=6 * TQ)
    assignments = []
    for i in range(draw(st.integers(min_value=0, max_value=8))):
        flow.add_operator(Operator(name=f"op{i}", runtime=1.0))
        start, end = sorted(draw(st.tuples(instant, instant)))
        cid = draw(st.integers(min_value=0, max_value=containers - 1))
        assignments.append(Assignment(f"op{i}", cid, start, end))
    for j in range(draw(st.integers(min_value=0, max_value=6))):
        build = BuildCandidate(index_name=f"t{j}__c", partition_id=0, duration_s=1.0, gain=1.0)
        if draw(st.booleans()):
            flow.add_operator(build.to_operator())
        start, end = sorted(draw(st.tuples(instant, instant)))
        cid = draw(st.integers(min_value=0, max_value=containers + 1))
        assignments.append(Assignment(build.op_name, cid, start, end))
    order = draw(st.permutations(assignments))
    return Schedule(dataflow=flow, pricing=PAPER_PRICING, assignments=list(order))


def _reference_lease(schedule, cid):
    """One container's lease from its own scan: its dataflow operators,
    or all its assignments when it holds none."""
    ops = schedule.dataflow.operators
    mine = [a for a in schedule.assignments if a.container_id == cid]
    items = [a for a in mine if a.op_name in ops and not ops[a.op_name].is_build_index]
    items = items or mine
    return lease_quanta(min(a.start for a in items), max(a.end for a in items), TQ)


@given(schedule=schedules_with_builds())
@settings(max_examples=300, deadline=None, derandomize=True)
def test_property_one_pass_leases_match_per_container_scan(schedule):
    """Money and idle slots derived from one pass over the assignments
    equal those derived container by container."""
    leases = {cid: _reference_lease(schedule, cid) for cid in schedule.containers_used()}
    for cid, lease in leases.items():
        assert schedule.leased_quanta(cid) == lease
    assert schedule.money_quanta() == sum(last - first for first, last in leases.values())
    expected = []
    for cid, items in schedule.by_container().items():
        first, last = leases[cid]
        busy = [(a.start, a.end) for a in items]
        for start, end in quantum_gaps(busy, first * TQ, last * TQ, TQ):
            expected.append(IdleSlot(cid, quantum=int(start // TQ), start=start, end=end))
    assert schedule.idle_slots() == expected
    with pytest.raises(KeyError):
        schedule.leased_quanta(max(leases, default=-1) + 1)
