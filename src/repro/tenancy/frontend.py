"""The event-driven multi-tenant front end over per-tenant services.

Each tenant is a bulkhead: its own :class:`~repro.core.service.QaaSService`
(catalog, gain window, storage account, fault/retry RNG streams) built
from a per-tenant derived seed, guarded by a :class:`TenantGuard`
(breakers + deadline ladder). The tenants share one observation bundle,
one admission controller, and — through the controller's per-quantum
slot budget — the container pool.

The run loop merges every tenant's seeded arrival stream into one
time-ordered submission heap and processes it deterministically:

1. pop the earliest submission (ties broken by tenant id, then per-
   tenant sequence number, then deferral attempt);
2. *catch up* — step every tenant's service, in tenant-id order, until
   its next admitted arrival lies in the future;
3. decide the submission (backpressure -> rate limit -> fair share) and
   either append it to the tenant's run state, re-queue it at its defer
   time, or shed it with a journal-attributed reason.

No randomness and no wall clock enter the loop, so a multi-tenant run
is byte-deterministic under any seed — including under fault storms
with breakers tripping — and two runs of the same config produce
byte-identical journal/metrics/trace artifacts.
"""

from __future__ import annotations

import heapq
import logging
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING

from repro.core.config import ExperimentConfig
from repro.core.metrics import ServiceMetrics
from repro.core.service import QaaSService, RunState, Strategy
from repro.dataflow.client import ArrivalEvent
from repro.faults import RetriesExhausted
from repro.obs import NOOP_OBS, Observation
from repro.tenancy.admission import (
    AdmissionController,
    AdmissionOutcome,
    Submission,
)
from repro.tenancy.guard import TenantGuard

if TYPE_CHECKING:
    from repro.recovery.invariants import InvariantMonitor

logger = logging.getLogger(__name__)

#: One pid block per tenant keeps trace process ids disjoint.
_TRACE_PID_STRIDE = 1_000_000


@dataclass
class TenantStats:
    """Per-tenant admission and degradation tallies of one run."""

    tenant_id: int
    weight: float
    submitted: int = 0
    admitted: int = 0
    deferred: int = 0
    shed: int = 0
    expired: int = 0
    executed: int = 0
    degraded: int = 0
    breaker_trips: int = 0
    retries_exhausted: int = 0
    metrics: ServiceMetrics | None = None


@dataclass
class FrontEndReport:
    """Everything a multi-tenant run reports."""

    tenants: list[TenantStats] = field(default_factory=list)

    def total(self, name: str) -> int:
        return sum(getattr(t, name) for t in self.tenants)

    @property
    def shed_rate(self) -> float:
        """Fraction of submissions shed (incl. expired), over all tenants."""
        submitted = self.total("submitted")
        if not submitted:
            return 0.0
        return (self.total("shed") + self.total("expired")) / submitted


class _TenantRuntime:
    """Mutable per-tenant machinery of one front-end run."""

    def __init__(
        self,
        stats: TenantStats,
        service: QaaSService,
        state: RunState,
        guard: TenantGuard,
    ) -> None:
        self.stats = stats
        self.service = service
        self.state = state
        self.guard = guard
        #: Finish times of executed dataflows still counted as in-flight.
        self.finish_heap: list[float] = []
        self.monitor: InvariantMonitor | None = None


class TenantFrontEnd:
    """Build and run one deterministic multi-tenant experiment."""

    def __init__(
        self,
        config: ExperimentConfig,
        strategy: Strategy = Strategy.GAIN,
        *,
        generator: str = "phase",
        interleaver: str = "lp",
        obs: Observation | None = None,
        check_invariants: bool = False,
    ) -> None:
        from repro import prepare_run
        from repro.experiments import derive_seed

        self.config = config
        self.strategy = strategy
        self.obs = obs if obs is not None else NOOP_OBS
        quantum = config.pricing.quantum_seconds
        self.controller = AdmissionController(
            tenants=config.tenants,
            quantum_seconds=quantum,
            weights=config.tenant_weights,
            queue_depth=config.tenant_queue_depth,
            rate_quanta=config.tenant_rate_quanta,
            burst=config.tenant_burst,
            quantum_slots=(
                config.admission_quantum_slots
                or max(1, config.max_containers // config.scheduler_containers)
            ),
            shed_policy=config.shed_policy,
            defer_quanta=config.tenant_defer_quanta,
            max_defers=config.tenant_max_defers,
        )
        self._check_invariants = check_invariants
        self._runtimes: list[_TenantRuntime] = []
        self._heap: list[tuple[float, int, int, int, str]] = []
        for tenant_id in range(config.tenants):
            mean_s = config.poisson_mean_s
            if tenant_id == 0 and config.tenant_skew > 1.0:
                mean_s = mean_s / config.tenant_skew  # the flash-crowd tenant
            tenant_config = replace(
                config,
                seed=derive_seed(config.seed, tenant_id),
                poisson_mean_s=mean_s,
                tenants=1,
                tenant_skew=1.0,
                tenant_weights=(),
            )
            service, events = prepare_run(
                strategy,
                generator=generator,
                config=tenant_config,
                interleaver=interleaver,
                obs=obs,
            )
            guard = TenantGuard(
                tenant_id,
                deadline_s=config.deadline_quanta * quantum,
                breaker_threshold=config.breaker_threshold,
                breaker_cooldown_s=config.breaker_cooldown_quanta * quantum,
                breaker_probes=config.breaker_probes,
                obs=obs,
            )
            service.guard = guard
            service.storage.owner = f"t{tenant_id}"
            # Disjoint trace pid blocks and per-tenant pool counters keep
            # the shared observation bundle separable by tenant.
            service.simulator._exec_seq = tenant_id * _TRACE_PID_STRIDE
            if service.pool is not None:
                service.pool.metrics_prefix = f"tenancy/t{tenant_id}/pool"
            state = service.begin_run([])
            runtime = _TenantRuntime(
                TenantStats(
                    tenant_id=tenant_id,
                    weight=self.controller.weights[tenant_id],
                ),
                service,
                state,
                guard,
            )
            if check_invariants:
                from repro.recovery.invariants import InvariantMonitor

                runtime.monitor = InvariantMonitor(service)
            self._runtimes.append(runtime)
            for seq, event in enumerate(events):
                heapq.heappush(
                    self._heap, (event.time, tenant_id, seq, 0, event.app)
                )

    # ------------------------------------------------------------------
    def _count(self, tenant_id: int, what: str) -> None:
        self.obs.metrics.counter(f"tenancy/{what}").inc()
        self.obs.metrics.counter(f"tenancy/t{tenant_id}/{what}").inc()

    def _step_once(self, runtime: _TenantRuntime) -> bool:
        """One service step plus in-flight/invariant bookkeeping."""
        if not runtime.service.step(runtime.state):
            return False
        outcome = runtime.state.metrics.outcomes[-1]
        heapq.heappush(runtime.finish_heap, outcome.finished_at)
        if runtime.monitor is not None:
            t = runtime.service.storage.accounted_until
            violations = runtime.monitor.check(runtime.state, t)
            if violations:
                from repro.recovery.invariants import InvariantError

                raise InvariantError(
                    violations,
                    context={
                        "harness": "tenancy",
                        "tenant": runtime.stats.tenant_id,
                        "seed": self.config.seed,
                        "step": runtime.state.i,
                    },
                )
        return True

    def _catch_up(self, now: float) -> None:
        """Step every tenant whose next admitted arrival is due by ``now``."""
        for runtime in self._runtimes:
            state = runtime.state
            while (
                not state.exhausted
                and state.i < len(state.ordered)
                and state.ordered[state.i].time <= now
            ):
                if not self._step_once(runtime):
                    break

    def _backlog(self, runtime: _TenantRuntime, now: float) -> int:
        """In-flight depth: executed-but-unfinished plus admitted-but-
        unstarted dataflows at ``now`` (the backpressure signal)."""
        heap = runtime.finish_heap
        while heap and heap[0] <= now:
            heapq.heappop(heap)
        return len(heap) + (len(runtime.state.ordered) - runtime.state.i)

    # ------------------------------------------------------------------
    def run(self) -> FrontEndReport:
        """Drain the merged submission stream and settle every tenant."""
        horizon = self.config.total_time_s
        while self._heap:
            time, tenant_id, seq, attempt, app = heapq.heappop(self._heap)
            runtime = self._runtimes[tenant_id]
            stats = runtime.stats
            if attempt == 0:
                stats.submitted += 1
            self._catch_up(time)
            if time >= horizon or runtime.state.exhausted:
                stats.shed += 1
                self.obs.journal.emit(
                    "tenant_shed", time, tenant=tenant_id, seq=seq, app=app,
                    reason="horizon",
                )
                self._count(tenant_id, "shed")
                continue
            sub = Submission(
                tenant_id=tenant_id, seq=seq, time=time, app=app, attempt=attempt
            )
            decision = self.controller.decide(
                sub, backlog=self._backlog(runtime, time)
            )
            if decision.outcome is AdmissionOutcome.ADMITTED:
                stats.admitted += 1
                runtime.state.ordered.append(ArrivalEvent(time=time, app=app))
                self.obs.journal.emit(
                    "tenant_admitted", time, tenant=tenant_id, seq=seq, app=app
                )
                self._count(tenant_id, "admitted")
            elif decision.outcome is AdmissionOutcome.DEFERRED:
                stats.deferred += 1
                retry_at = decision.retry_at
                assert retry_at is not None
                self.obs.journal.emit(
                    "tenant_deferred", time, tenant=tenant_id, seq=seq, app=app,
                    reason=decision.reason, retry_at=retry_at,
                )
                self._count(tenant_id, "deferred")
                heapq.heappush(
                    self._heap, (retry_at, tenant_id, seq, attempt + 1, app)
                )
            else:
                stats.shed += 1
                self.obs.journal.emit(
                    "tenant_shed", time, tenant=tenant_id, seq=seq, app=app,
                    reason=decision.reason,
                )
                self._count(tenant_id, "shed")
        return self._finish()

    def _finish(self) -> FrontEndReport:
        """Drain remaining admitted work, settle and tally every tenant."""
        report = FrontEndReport()
        for runtime in self._runtimes:
            stats = runtime.stats
            while self._step_once(runtime):
                pass
            state = runtime.state
            # Admitted arrivals the horizon cut off: journaled, never
            # silently dropped.
            for j in range(state.i, len(state.ordered)):
                event = state.ordered[j]
                stats.expired += 1
                self.obs.journal.emit(
                    "tenant_shed", event.time, tenant=stats.tenant_id,
                    seq=-1, app=event.app, reason="horizon",
                )
                self._count(stats.tenant_id, "expired")
            metrics = runtime.service.finish_run(state)
            self._sweep_orphans(runtime)
            stats.metrics = metrics
            stats.executed = len(metrics.outcomes)
            stats.degraded = runtime.guard.degraded
            stats.breaker_trips = (
                runtime.guard.build_breaker.trips
                + runtime.guard.storage_breaker.trips
            )
            if stats.admitted != stats.executed + stats.expired:
                raise RuntimeError(
                    f"tenant {stats.tenant_id} dropped admitted dataflows: "
                    f"admitted={stats.admitted} executed={stats.executed} "
                    f"expired={stats.expired}"
                )
            report.tenants.append(stats)
        return report

    def _sweep_orphans(self, runtime: _TenantRuntime) -> None:
        """Final orphan-delete sweep under the tenant's retry budget.

        Each leftover path gets one budgeted round of attempts through
        :meth:`RetryPolicy.execute`; exhaustion surfaces as a typed,
        tenant-attributed ``retries_exhausted`` journal event (and the
        object stays, billed — exactly what the event lets an operator
        chase) instead of an anonymous storage error.
        """
        service = runtime.service
        if not service._orphan_paths:
            return
        now = max(self.config.total_time_s, service.storage.accounted_until)
        pending, service._orphan_paths = service._orphan_paths, []
        for path in pending:
            if not service.storage.exists(path):
                continue
            try:
                service.retry_policy.execute(
                    lambda: service.storage.delete(path, now),
                    operation=f"storage_delete:{path}",
                    tenant=f"t{runtime.stats.tenant_id}",
                )
            except RetriesExhausted as exc:
                runtime.stats.retries_exhausted += 1
                service._orphan_paths.append(path)
                self.obs.journal.emit(
                    "retries_exhausted", now, tenant=runtime.stats.tenant_id,
                    operation="storage_delete", path=path, attempts=exc.attempts,
                )
                self._count(runtime.stats.tenant_id, "retries_exhausted")
                logger.info("orphan sweep gave up on %s: %s", path, exc)
