"""Tests for the fault-injection subsystem: injector, retry, recovery."""

import numpy as np
import pytest

from repro.cloud.pricing import PAPER_PRICING
from repro.cloud.storage import CloudStorage
from repro.core.config import ExperimentConfig
from repro.core.simulator import CompletedBuild, ExecutionSimulator
from repro.dataflow.graph import Dataflow
from repro.dataflow.operator import Operator
from repro.explore.hooks import drive
from repro.explore.scenarios import build_scenario
from repro.faults.injector import (
    FaultInjector,
    FaultKind,
    FaultProfile,
    TransientStorageError,
)
from repro.faults.retry import RetryOverride, RetryPolicy
from repro.interleave.lp import InterleavedSchedule
from repro.interleave.slots import BuildCandidate
from repro.recovery.invariants import InvariantMonitor
from repro.scheduling.schedule import Assignment, Schedule


class TestFaultProfile:
    def test_defaults_inject_nothing(self):
        assert not FaultProfile().any_faults

    def test_any_rate_activates(self):
        assert FaultProfile(operator_failure_rate=0.1).any_faults
        assert FaultProfile(straggler_rate=0.01).any_faults

    @pytest.mark.parametrize("field", [
        "operator_failure_rate",
        "container_crash_rate",
        "storage_put_failure_rate",
        "storage_delete_failure_rate",
        "straggler_rate",
    ])
    def test_rejects_out_of_range_rates(self, field):
        with pytest.raises(ValueError, match=field):
            FaultProfile(**{field: -0.1})
        with pytest.raises(ValueError, match=field):
            FaultProfile(**{field: 1.5})

    def test_rejects_negative_intervals(self):
        with pytest.raises(ValueError):
            FaultProfile(respawn_delay_s=-1.0)
        with pytest.raises(ValueError):
            FaultProfile(checkpoint_interval_s=-5.0)
        with pytest.raises(ValueError):
            FaultProfile(straggler_slowdown=0.5)

    def test_one_error_names_every_bad_field(self):
        """Validation aggregates: a profile with five mistakes reports all
        five in a single ValueError, not one per edit-and-retry."""
        with pytest.raises(ValueError) as exc:
            FaultProfile(
                operator_failure_rate=1.5,
                container_crash_rate=-0.1,
                straggler_slowdown=0.5,
                respawn_delay_s=-1.0,
                checkpoint_interval_s=-2.0,
            )
        message = str(exc.value)
        assert message.startswith("invalid FaultProfile: ")
        for name in (
            "operator_failure_rate must be in [0, 1], got 1.5",
            "container_crash_rate must be in [0, 1], got -0.1",
            "straggler_slowdown must be >= 1, got 0.5",
            "respawn_delay_s must be non-negative, got -1.0",
            "checkpoint_interval_s must be non-negative, got -2.0",
        ):
            assert name in message
        assert message.count(";") == 4

    def test_single_bad_field_reported_alone(self):
        with pytest.raises(ValueError) as exc:
            FaultProfile(straggler_rate=2.0)
        assert ";" not in str(exc.value)
        assert "straggler_rate" in str(exc.value)


class TestFaultInjector:
    def test_zero_rates_never_fire_and_never_draw(self):
        rng = np.random.default_rng(1)
        before = rng.bit_generator.state
        injector = FaultInjector(FaultProfile(), rng=rng)
        assert not injector.operator_fails()
        assert not injector.container_crashes()
        assert not injector.storage_put_fails()
        assert not injector.storage_delete_fails()
        assert not injector.straggles()
        assert not injector.build_fails()
        assert rng.bit_generator.state == before
        assert injector.stats.total == 0

    def test_rate_one_always_fires(self):
        injector = FaultInjector(
            FaultProfile(operator_failure_rate=1.0), rng=np.random.default_rng(2)
        )
        assert all(injector.operator_fails() for _ in range(10))
        assert injector.stats.by_kind[FaultKind.OPERATOR_TRANSIENT.value] == 10

    def test_rates_are_approximately_respected(self):
        injector = FaultInjector(
            FaultProfile(operator_failure_rate=0.3), rng=np.random.default_rng(3)
        )
        fired = sum(injector.operator_fails() for _ in range(5000))
        assert 0.25 < fired / 5000 < 0.35

    def test_same_seed_same_draws(self):
        profile = FaultProfile(operator_failure_rate=0.5, container_crash_rate=0.2)
        a = FaultInjector(profile, rng=np.random.default_rng(9))
        b = FaultInjector(profile, rng=np.random.default_rng(9))
        draws_a = [(a.operator_fails(), a.container_crashes()) for _ in range(50)]
        draws_b = [(b.operator_fails(), b.container_crashes()) for _ in range(50)]
        assert draws_a == draws_b

    def test_straggler_factor_within_bounds(self):
        injector = FaultInjector(
            FaultProfile(straggler_rate=1.0, straggler_slowdown=4.0),
            rng=np.random.default_rng(4),
        )
        for _ in range(100):
            assert 1.0 <= injector.straggler_factor() <= 4.0

    def test_checkpointed_floors_to_interval(self):
        injector = FaultInjector(FaultProfile(checkpoint_interval_s=5.0))
        assert injector.checkpointed(13.0) == pytest.approx(10.0)
        assert injector.checkpointed(4.9) == 0.0
        assert injector.checkpointed(5.0) == pytest.approx(5.0)

    def test_checkpointed_disabled_without_interval(self):
        assert FaultInjector(FaultProfile()).checkpointed(100.0) == 0.0


class TestRetryPolicy:
    def test_exponential_growth_with_cap(self):
        policy = RetryPolicy(base_delay_s=1.0, multiplier=2.0, max_delay_s=5.0,
                             jitter=0.0)
        assert policy.delay_s(0) == pytest.approx(1.0)
        assert policy.delay_s(1) == pytest.approx(2.0)
        assert policy.delay_s(2) == pytest.approx(4.0)
        assert policy.delay_s(3) == pytest.approx(5.0)  # capped
        assert policy.delay_s(10) == pytest.approx(5.0)

    def test_jitter_stays_within_band(self):
        policy = RetryPolicy(base_delay_s=10.0, multiplier=1.0, jitter=0.2,
                             rng=np.random.default_rng(5))
        for _ in range(100):
            assert 8.0 <= policy.delay_s(0) <= 12.0

    def test_per_kind_overrides(self):
        policy = RetryPolicy(
            max_attempts=4, base_delay_s=1.0, jitter=0.0,
            overrides={FaultKind.CONTAINER_CRASH: RetryOverride(
                max_attempts=2, base_delay_s=8.0)},
        )
        assert policy.attempts_for(FaultKind.CONTAINER_CRASH) == 2
        assert policy.attempts_for(FaultKind.OPERATOR_TRANSIENT) == 4
        assert policy.delay_s(0, FaultKind.CONTAINER_CRASH) == pytest.approx(8.0)
        assert policy.delay_s(0, FaultKind.OPERATOR_TRANSIENT) == pytest.approx(1.0)

    def test_worst_case_bounds_actual_backoff(self):
        policy = RetryPolicy(max_attempts=5, jitter=0.1,
                             rng=np.random.default_rng(6))
        total = sum(policy.delay_s(k) for k in range(4))
        # Each capped step stretched by the full jitter band.
        worst = sum(
            min(policy.max_delay_s, policy.base_delay_s * policy.multiplier**k)
            * (1.0 + policy.jitter)
            for k in range(4)
        )
        assert total <= worst + 1e-9

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(multiplier=0.5)
        with pytest.raises(ValueError):
            RetryPolicy(jitter=1.0)

    def test_one_error_names_every_bad_field(self):
        """All five bad knobs surface in a single aggregated ValueError."""
        with pytest.raises(ValueError) as exc:
            RetryPolicy(max_attempts=0, base_delay_s=-1.0, multiplier=0.5,
                        max_delay_s=-2.0, jitter=1.5)
        message = str(exc.value)
        assert message.startswith("invalid RetryPolicy: ")
        for name in ("max_attempts must be at least 1, got 0",
                     "base_delay_s must be non-negative, got -1.0",
                     "multiplier must be >= 1, got 0.5",
                     "max_delay_s must be non-negative, got -2.0",
                     "jitter must be in [0, 1), got 1.5"):
            assert name in message
        assert message.count(";") == 4


class TestConfigValidation:
    def test_default_config_valid(self):
        ExperimentConfig()  # must not raise

    def test_rejects_runtime_error_above_one(self):
        with pytest.raises(ValueError, match=r"runtime_error must be in \[0, 1\]"):
            ExperimentConfig(runtime_error=1.5)

    def test_rejects_negative_runtime_error(self):
        with pytest.raises(ValueError, match=r"runtime_error must be in \[0, 1\]"):
            ExperimentConfig(runtime_error=-0.1)

    def test_rejects_negative_rates(self):
        with pytest.raises(ValueError, match=r"operator_failure_rate must be in \[0, 1\], got -0.2"):
            ExperimentConfig(operator_failure_rate=-0.2)
        with pytest.raises(ValueError, match=r"container_crash_rate must be in \[0, 1\]"):
            ExperimentConfig(container_crash_rate=2.0)

    def test_rejects_negative_intervals(self):
        with pytest.raises(ValueError, match="update_interval_s must be non-negative, got -60.0"):
            ExperimentConfig(update_interval_s=-60.0)
        with pytest.raises(ValueError, match="checkpoint_interval_s must be non-negative"):
            ExperimentConfig(checkpoint_interval_s=-1.0)
        with pytest.raises(ValueError, match="poisson_mean_s must be non-negative"):
            ExperimentConfig(poisson_mean_s=-5.0)

    def test_rejects_bad_retry_settings(self):
        with pytest.raises(ValueError, match="retry_max_attempts must be at least 1"):
            ExperimentConfig(retry_max_attempts=0)
        with pytest.raises(ValueError, match="retry_multiplier must be >= 1"):
            ExperimentConfig(retry_multiplier=0.9)

    def test_fault_profile_reflects_config(self):
        config = ExperimentConfig(
            operator_failure_rate=0.05, container_crash_rate=0.02,
            checkpoint_interval_s=5.0,
        )
        profile = config.fault_profile()
        assert profile.operator_failure_rate == 0.05
        assert profile.container_crash_rate == 0.02
        assert profile.checkpoint_interval_s == 5.0
        assert profile.any_faults


class TestStorageFaults:
    def test_failed_put_stores_and_bills_nothing(self):
        injector = FaultInjector(
            FaultProfile(storage_put_failure_rate=1.0), rng=np.random.default_rng(0)
        )
        storage = CloudStorage(PAPER_PRICING, injector=injector)
        with pytest.raises(TransientStorageError):
            storage.put("idx/a", 100.0, 60.0)
        assert not storage.exists("idx/a")
        assert storage.live_mb == 0.0
        assert storage.storage_cost(600.0) == 0.0

    def test_failed_delete_keeps_object_billing(self):
        injector = FaultInjector(
            FaultProfile(storage_delete_failure_rate=1.0), rng=np.random.default_rng(0)
        )
        storage = CloudStorage(PAPER_PRICING, injector=injector)
        storage.put("idx/a", 60.0, 0.0)
        with pytest.raises(TransientStorageError):
            storage.delete("idx/a", 60.0)
        assert storage.exists("idx/a")
        cost_60 = storage.storage_cost(60.0)
        assert storage.storage_cost(120.0) > cost_60

    def test_no_injector_is_reliable(self):
        storage = CloudStorage(PAPER_PRICING)
        storage.put("idx/a", 10.0, 0.0)
        storage.delete("idx/a", 60.0)
        assert not storage.exists("idx/a")

    def test_rebuild_cancels_the_orphaned_delete(self, monkeypatch):
        # A delete is lost, the partition is rebuilt at the same path,
        # then the orphan retry runs: the rebuilt object must survive.
        run = build_scenario("toy", seed=0).build()
        service, metrics = run.service, run.state.metrics
        storage = service.storage
        name = sorted(service.catalog.indexes)[0]
        index = service.catalog.indexes[name]
        path = index.spec.path(0)
        completed = CompletedBuild(index_name=name, partition_id=0, finished_at=60.0)
        drive(service._build_action(completed, metrics, None))

        real_delete = storage.delete

        def lost_once(path: str, time: float) -> None:
            monkeypatch.setattr(storage, "delete", real_delete)
            raise TransientStorageError("delete", path)

        monkeypatch.setattr(storage, "delete", lost_once)
        drive(service._delete_action(name, 120.0, metrics, None))
        assert service._orphan_paths == [path]
        assert not index.partitions[0].built

        rebuilt = CompletedBuild(index_name=name, partition_id=0, finished_at=180.0)
        drive(service._build_action(rebuilt, metrics, None))
        service._retry_orphan_deletes(240.0, metrics)

        assert index.partitions[0].built
        assert storage.exists(path)
        assert service._orphan_paths == []
        monitor = InvariantMonitor(service)
        assert monitor.check(run.state, storage.accounted_until) == []


def _one_op_flow(runtime=30.0):
    flow = Dataflow(name="d")
    flow.add_operator(Operator(name="a", runtime=runtime))
    return flow


def _schedule(flow, runtime=30.0):
    return Schedule(dataflow=flow, pricing=PAPER_PRICING,
                    assignments=[Assignment("a", 0, 0.0, runtime)])


class TestSimulatorFaults:
    def _sim(self, profile, seed=0, retry=None):
        return ExecutionSimulator(
            PAPER_PRICING,
            rng=np.random.default_rng(seed),
            injector=FaultInjector(profile, rng=np.random.default_rng(seed + 100)),
            retry=retry or RetryPolicy(rng=np.random.default_rng(seed + 200)),
        )

    def test_transient_failures_extend_makespan(self):
        flow = _one_op_flow()
        inter = InterleavedSchedule(schedule=_schedule(flow))
        clean = ExecutionSimulator(PAPER_PRICING).execute(inter, 0.0)
        sim = self._sim(FaultProfile(operator_failure_rate=0.9), seed=3)
        faulty = sim.execute(inter, 0.0)
        assert faulty.operator_retries > 0
        assert faulty.makespan_seconds > clean.makespan_seconds
        assert faulty.finish_time > 0

    def test_all_operators_complete_despite_faults(self):
        flow = Dataflow(name="chain")
        prev = None
        for i in range(20):
            flow.add_operator(Operator(name=f"op{i}", runtime=10.0))
            if prev is not None:
                flow.add_edge(prev, f"op{i}")
            prev = f"op{i}"
        sched = Schedule(dataflow=flow, pricing=PAPER_PRICING, assignments=[
            Assignment(f"op{i}", 0, i * 10.0, (i + 1) * 10.0) for i in range(20)
        ])
        sim = self._sim(FaultProfile(operator_failure_rate=0.2), seed=5)
        result = sim.execute(InterleavedSchedule(schedule=sched), 0.0)
        assert result.dataflow_ops == 20
        assert result.makespan_seconds >= 200.0

    def test_retries_bounded_by_policy(self):
        policy = RetryPolicy(max_attempts=3, rng=np.random.default_rng(0))
        sim = self._sim(FaultProfile(operator_failure_rate=1.0), seed=7, retry=policy)
        result = sim.execute(
            InterleavedSchedule(schedule=_schedule(_one_op_flow())), 0.0
        )
        # Rate 1.0 exhausts the budget; the op then completes cleanly on
        # a respawned container.
        assert result.operator_retries == 3
        assert result.retries_exhausted == 1
        assert result.makespan_seconds > 30.0

    def test_crashes_bill_forfeited_quanta(self):
        flow = _one_op_flow()
        inter = InterleavedSchedule(schedule=_schedule(flow))
        clean = ExecutionSimulator(PAPER_PRICING).execute(inter, 0.0)
        sim = self._sim(FaultProfile(container_crash_rate=1.0), seed=11)
        crashed = sim.execute(inter, 0.0)
        assert crashed.containers_crashed > 0
        assert crashed.money_quanta > clean.money_quanta

    def test_stragglers_slow_but_never_fail(self):
        sim = self._sim(FaultProfile(straggler_rate=1.0, straggler_slowdown=2.0), seed=13)
        result = sim.execute(
            InterleavedSchedule(schedule=_schedule(_one_op_flow())), 0.0
        )
        assert result.stragglers == 1
        assert result.operator_retries == 0
        assert 30.0 <= result.makespan_seconds <= 60.0

    def test_failed_build_not_retried_inline(self):
        flow = Dataflow(name="d")
        flow.add_operator(Operator(name="a", runtime=30.0))
        sched = Schedule(dataflow=flow, pricing=PAPER_PRICING,
                         assignments=[Assignment("a", 0, 0.0, 30.0)])
        cand = BuildCandidate("t__x", 0, 20.0, 1.0)
        inter = InterleavedSchedule(
            schedule=sched,
            build_assignments=[Assignment(cand.op_name, 0, 30.0, 50.0)],
            scheduled_builds=[cand],
        )
        sim = self._sim(FaultProfile(operator_failure_rate=1.0), seed=17)
        result = sim.execute(inter, 0.0)
        assert result.builds_completed == []
        assert result.builds_failed == 1

    def test_preempted_build_records_checkpoint(self):
        flow = Dataflow(name="d")
        flow.add_operator(Operator(name="a", runtime=30.0))
        sched = Schedule(dataflow=flow, pricing=PAPER_PRICING,
                         assignments=[Assignment("a", 0, 0.0, 30.0)])
        # 45 s of work in a 30 s gap: cut at the quantum boundary after
        # 30 s of progress; with a 10 s interval, 30 s are durable.
        cand = BuildCandidate("t__x", 0, 45.0, 1.0)
        inter = InterleavedSchedule(
            schedule=sched,
            build_assignments=[Assignment(cand.op_name, 0, 30.0, 75.0)],
            scheduled_builds=[cand],
        )
        sim = self._sim(FaultProfile(checkpoint_interval_s=10.0), seed=19)
        result = sim.execute(inter, 0.0)
        assert result.builds_killed == 1
        assert len(result.checkpoints) == 1
        ckpt = result.checkpoints[0]
        assert (ckpt.index_name, ckpt.partition_id) == ("t__x", 0)
        assert ckpt.seconds == pytest.approx(30.0)

    def test_no_checkpoint_without_interval(self):
        flow = Dataflow(name="d")
        flow.add_operator(Operator(name="a", runtime=30.0))
        sched = Schedule(dataflow=flow, pricing=PAPER_PRICING,
                         assignments=[Assignment("a", 0, 0.0, 30.0)])
        cand = BuildCandidate("t__x", 0, 45.0, 1.0)
        inter = InterleavedSchedule(
            schedule=sched,
            build_assignments=[Assignment(cand.op_name, 0, 30.0, 75.0)],
            scheduled_builds=[cand],
        )
        result = ExecutionSimulator(PAPER_PRICING).execute(inter, 0.0)
        assert result.builds_killed == 1
        assert result.checkpoints == []


class TestZeroRateDeterminism:
    """A zero-rate injector must leave the simulator untouched."""

    def test_execute_identical_with_and_without_injector(self):
        flow = Dataflow(name="d")
        flow.add_operator(Operator(name="a", runtime=30.0))
        flow.add_operator(Operator(name="b", runtime=45.0))
        flow.add_edge("a", "b")
        sched = Schedule(dataflow=flow, pricing=PAPER_PRICING, assignments=[
            Assignment("a", 0, 0.0, 30.0), Assignment("b", 0, 30.0, 75.0),
        ])
        cand = BuildCandidate("t__x", 0, 20.0, 1.0)
        inter = InterleavedSchedule(
            schedule=sched,
            build_assignments=[Assignment(cand.op_name, 0, 75.0, 95.0)],
            scheduled_builds=[cand],
        )
        plain = ExecutionSimulator(
            PAPER_PRICING, runtime_error=0.2, rng=np.random.default_rng(42)
        ).execute(inter, 0.0)
        with_injector = ExecutionSimulator(
            PAPER_PRICING, runtime_error=0.2, rng=np.random.default_rng(42),
            injector=FaultInjector(FaultProfile(), rng=np.random.default_rng(1)),
            retry=RetryPolicy(rng=np.random.default_rng(2)),
        ).execute(inter, 0.0)
        assert plain.finish_time == with_injector.finish_time
        assert plain.money_quanta == with_injector.money_quanta
        assert len(plain.builds_completed) == len(with_injector.builds_completed)
        for a, b in zip(plain.builds_completed, with_injector.builds_completed):
            assert a == b
