"""Tests for schedules, the skyline scheduler and the LB baseline."""

import pytest

from repro.cloud.pricing import PAPER_PRICING
from repro.dataflow.graph import Dataflow
from repro.dataflow.operator import Operator
from repro.scheduling.online_lb import OnlineLoadBalanceScheduler
from repro.scheduling.schedule import (
    Assignment,
    InfeasibleScheduleError,
    Schedule,
)
from repro.scheduling.skyline import SkylineScheduler


def diamond(runtimes=(30.0, 30.0, 30.0, 30.0), data_mb=0.0):
    flow = Dataflow(name="diamond")
    for name, rt in zip("abcd", runtimes):
        flow.add_operator(Operator(name=name, runtime=rt))
    flow.add_edge("a", "b", data_mb=data_mb)
    flow.add_edge("a", "c", data_mb=data_mb)
    flow.add_edge("b", "d", data_mb=data_mb)
    flow.add_edge("c", "d", data_mb=data_mb)
    return flow


class TestScheduleObjectives:
    def _schedule(self, assignments, flow=None):
        return Schedule(
            dataflow=flow or diamond(),
            pricing=PAPER_PRICING,
            assignments=assignments,
        )

    def test_makespan(self):
        s = self._schedule([
            Assignment("a", 0, 0.0, 30.0),
            Assignment("b", 0, 30.0, 60.0),
            Assignment("c", 1, 30.0, 60.0),
            Assignment("d", 0, 60.0, 90.0),
        ])
        assert s.makespan_seconds() == 90.0
        assert s.makespan_quanta() == pytest.approx(1.5)

    def test_money_counts_leased_quanta_per_container(self):
        s = self._schedule([
            Assignment("a", 0, 0.0, 30.0),
            Assignment("b", 0, 30.0, 60.0),
            Assignment("c", 1, 30.0, 60.0),
            Assignment("d", 0, 60.0, 90.0),
        ])
        # Container 0: quanta 0,1 -> 2; container 1: quantum 0 -> 1.
        assert s.money_quanta() == 3
        assert s.money_dollars() == pytest.approx(0.3)

    def test_idle_slots_respect_quantum_boundaries(self):
        s = self._schedule([
            Assignment("a", 0, 0.0, 30.0),
            Assignment("b", 0, 90.0, 120.0),
            Assignment("c", 1, 0.0, 30.0),
            Assignment("d", 0, 120.0, 150.0),
        ])
        slots = s.idle_slots()
        # Container 0 idle 30-90 -> split at 60 into two slots.
        c0 = sorted((x.start, x.end) for x in slots if x.container_id == 0)
        assert (30.0, 60.0) in c0 and (60.0, 90.0) in c0

    def test_fragmentation(self):
        s = self._schedule([
            Assignment("a", 0, 0.0, 30.0),
            Assignment("b", 0, 30.0, 60.0),
            Assignment("c", 1, 0.0, 30.0),
            Assignment("d", 0, 60.0, 90.0),
        ])
        # Container 0: 90s busy of 120s leased -> 30s idle; container 1: 30s idle.
        assert s.fragmentation_quanta() == pytest.approx(1.0)

    def test_build_ops_do_not_extend_lease(self):
        flow = diamond()
        flow.add_operator(Operator(name="bx", runtime=10.0, priority=-1, optional=True))
        s = Schedule(dataflow=flow, pricing=PAPER_PRICING, assignments=[
            Assignment("a", 0, 0.0, 30.0),
            Assignment("b", 0, 30.0, 60.0),
            Assignment("c", 0, 60.0, 90.0),
            Assignment("d", 0, 90.0, 100.0),
            Assignment("bx", 0, 100.0, 110.0),
        ])
        assert s.makespan_seconds() == 100.0  # build op excluded
        assert s.money_quanta() == 2


class TestValidation:
    def test_detects_overlap(self):
        s = Schedule(dataflow=diamond(), pricing=PAPER_PRICING, assignments=[
            Assignment("a", 0, 0.0, 30.0),
            Assignment("b", 0, 20.0, 50.0),
            Assignment("c", 1, 30.0, 60.0),
            Assignment("d", 1, 60.0, 90.0),
        ])
        with pytest.raises(InfeasibleScheduleError):
            s.validate()

    def test_detects_dependency_violation(self):
        s = Schedule(dataflow=diamond(), pricing=PAPER_PRICING, assignments=[
            Assignment("a", 0, 0.0, 30.0),
            Assignment("b", 1, 10.0, 40.0),  # starts before a ends
            Assignment("c", 2, 30.0, 60.0),
            Assignment("d", 3, 60.0, 90.0),
        ])
        with pytest.raises(InfeasibleScheduleError):
            s.validate()

    def test_detects_missing_operator(self):
        s = Schedule(dataflow=diamond(), pricing=PAPER_PRICING, assignments=[
            Assignment("a", 0, 0.0, 30.0),
        ])
        with pytest.raises(InfeasibleScheduleError):
            s.validate()

    def test_transfer_time_enforced_when_bandwidth_given(self):
        flow = diamond(data_mb=1250.0)  # 10 s transfer at 125 MB/s
        s = Schedule(dataflow=flow, pricing=PAPER_PRICING, assignments=[
            Assignment("a", 0, 0.0, 30.0),
            Assignment("b", 1, 35.0, 65.0),  # needs >= 40.0 start
            Assignment("c", 0, 30.0, 60.0),
            Assignment("d", 0, 75.0, 105.0),
        ])
        s.validate()  # fine without bandwidth accounting
        with pytest.raises(InfeasibleScheduleError):
            s.validate(net_bw_mb_s=125.0)


class TestSkylineScheduler:
    def test_all_operators_assigned_and_feasible(self):
        flow = diamond()
        for s in SkylineScheduler(PAPER_PRICING).schedule(flow):
            s.validate(net_bw_mb_s=125.0)

    def test_skyline_is_pareto(self):
        flow = diamond(runtimes=(40.0, 80.0, 80.0, 40.0))
        skyline = SkylineScheduler(PAPER_PRICING, max_skyline=8).schedule(flow)
        points = [(s.makespan_seconds(), s.money_quanta()) for s in skyline]
        for i, (t1, m1) in enumerate(points):
            for j, (t2, m2) in enumerate(points):
                if i != j:
                    assert not (t2 <= t1 and m2 < m1) and not (t2 < t1 and m2 <= m1)

    def test_parallel_ops_use_multiple_containers_for_speed(self):
        flow = diamond(runtimes=(10.0, 100.0, 100.0, 10.0))
        skyline = SkylineScheduler(PAPER_PRICING, max_skyline=8).schedule(flow)
        fastest = min(skyline, key=lambda s: s.makespan_seconds())
        assert len(fastest.containers_used()) >= 2
        assert fastest.makespan_seconds() < 220.0

    def test_respects_max_containers(self):
        flow = Dataflow(name="wide")
        for i in range(10):
            flow.add_operator(Operator(name=f"op{i}", runtime=50.0))
        skyline = SkylineScheduler(PAPER_PRICING, max_containers=3).schedule(flow)
        assert all(len(s.containers_used()) <= 3 for s in skyline)

    def test_max_skyline_cap(self):
        flow = diamond()
        skyline = SkylineScheduler(PAPER_PRICING, max_skyline=2).schedule(flow)
        assert 1 <= len(skyline) <= 2

    def test_optional_ops_never_hurt_objectives(self):
        flow = diamond()
        base = SkylineScheduler(PAPER_PRICING).schedule(diamond())
        best_time = min(s.makespan_seconds() for s in base)
        best_money = min(s.money_quanta() for s in base)
        flow.add_operator(Operator(name="bx", runtime=25.0, priority=-1, optional=True))
        withopt = SkylineScheduler(PAPER_PRICING).schedule(flow)
        assert min(s.makespan_seconds() for s in withopt) <= best_time + 1e-6
        assert min(s.money_quanta() for s in withopt) <= best_money

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            SkylineScheduler(PAPER_PRICING, max_containers=0)
        with pytest.raises(ValueError):
            SkylineScheduler(PAPER_PRICING, max_skyline=0)


class TestOnlineLoadBalance:
    def test_produces_feasible_schedule(self):
        s = OnlineLoadBalanceScheduler(PAPER_PRICING, num_containers=3).schedule(diamond())
        s.validate(net_bw_mb_s=125.0)

    def test_balances_parallel_work(self):
        flow = Dataflow(name="wide")
        for i in range(6):
            flow.add_operator(Operator(name=f"op{i}", runtime=60.0))
        s = OnlineLoadBalanceScheduler(PAPER_PRICING, num_containers=3).schedule(flow)
        per_container = {}
        for a in s.assignments:
            per_container[a.container_id] = per_container.get(a.container_id, 0) + 1
        assert all(count == 2 for count in per_container.values())

    def test_skips_optional_ops(self):
        flow = diamond()
        flow.add_operator(Operator(name="bx", runtime=5.0, priority=-1, optional=True))
        s = OnlineLoadBalanceScheduler(PAPER_PRICING).schedule(flow)
        assert all(a.op_name != "bx" for a in s.assignments)
