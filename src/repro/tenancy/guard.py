"""The per-tenant guard: breakers + deadline ladder behind the service.

:class:`TenantGuard` implements the :class:`repro.core.service.ServiceGuard`
hook surface. It owns the tenant's two circuit breakers (index-build
persistence and storage deletes) and the per-dataflow deadline budget,
and reports everything through the shared observation bundle:
``breaker_transition`` and ``tenant_degraded`` journal events plus
``tenancy/t<id>/*`` metrics.
"""

from __future__ import annotations

from repro.core.service import MODE_FULL, MODE_INDEXED, MODE_UNINDEXED, ServiceGuard
from repro.obs import NOOP_OBS, Observation
from repro.tenancy.breaker import STATE_CODES, BreakerState, CircuitBreaker


class TenantGuard(ServiceGuard):
    """Protective hooks of one tenant's service instance."""

    def __init__(
        self,
        tenant_id: int,
        *,
        deadline_s: float = 0.0,
        breaker_threshold: int = 0,
        breaker_cooldown_s: float = 300.0,
        breaker_probes: int = 1,
        obs: Observation | None = None,
    ) -> None:
        if deadline_s < 0:
            raise ValueError(f"deadline_s must be non-negative, got {deadline_s}")
        self.tenant_id = tenant_id
        self.deadline_s = deadline_s
        self.obs = obs if obs is not None else NOOP_OBS
        self.degraded = 0
        self.build_breaker = CircuitBreaker(
            "build",
            threshold=breaker_threshold,
            cooldown_s=breaker_cooldown_s,
            probes=breaker_probes,
            on_transition=self._on_transition,
        )
        self.storage_breaker = CircuitBreaker(
            "storage",
            threshold=breaker_threshold,
            cooldown_s=breaker_cooldown_s,
            probes=breaker_probes,
            on_transition=self._on_transition,
        )

    # ------------------------------------------------------------------
    def _metric(self, suffix: str) -> str:
        return f"tenancy/t{self.tenant_id}/{suffix}"

    def _on_transition(
        self, breaker: str, old: BreakerState, new: BreakerState, now: float
    ) -> None:
        self.obs.journal.emit(
            "breaker_transition",
            t=now,
            tenant=self.tenant_id,
            breaker=breaker,
            old=old.value,
            new=new.value,
        )
        metrics = self.obs.metrics
        metrics.gauge(self._metric(f"breaker/{breaker}/state")).set(STATE_CODES[new])
        if new is BreakerState.OPEN:
            metrics.counter(self._metric(f"breaker/{breaker}/trips")).inc()

    def _note_degraded(self, mode: str, reason: str, now: float) -> None:
        self.degraded += 1
        self.obs.journal.emit(
            "tenant_degraded",
            t=now,
            tenant=self.tenant_id,
            mode=mode,
            reason=reason,
        )
        self.obs.metrics.counter(self._metric("degraded")).inc()
        self.obs.metrics.counter("tenancy/degraded").inc()

    # ------------------------------------------------------------------
    # ServiceGuard surface
    # ------------------------------------------------------------------
    def decide_mode(self, issued_at: float, exec_start: float) -> str:
        """The degradation ladder, most-degraded rung first.

        Waiting past twice the deadline budget runs the dataflow
        unindexed; past the budget — or while the build breaker is OPEN
        — it runs on existing indexes without tuning. A HALF_OPEN
        breaker lets decisions through: those are the probes whose
        build outcomes close (or re-open) it.
        """
        if self.deadline_s > 0:
            wait = exec_start - issued_at
            if wait > 2 * self.deadline_s:
                self._note_degraded(MODE_UNINDEXED, "deadline", exec_start)
                return MODE_UNINDEXED
            if wait > self.deadline_s:
                self._note_degraded(MODE_INDEXED, "deadline", exec_start)
                return MODE_INDEXED
        if not self.build_breaker.allow(exec_start):
            self._note_degraded(MODE_INDEXED, "breaker", exec_start)
            return MODE_INDEXED
        return MODE_FULL

    def allow_build_put(self, index_name: str, now: float) -> bool:
        return self.build_breaker.allow(now)

    def record_build_put(self, ok: bool, now: float) -> None:
        if ok:
            self.build_breaker.record_success(now)
        else:
            self.build_breaker.record_failure(now)

    def record_build_failures(self, count: int, now: float) -> None:
        for _ in range(count):
            self.build_breaker.record_failure(now)

    def allow_storage_delete(self, path: str, now: float) -> bool:
        return self.storage_breaker.allow(now)

    def record_storage_delete(self, ok: bool, now: float) -> None:
        if ok:
            self.storage_breaker.record_success(now)
        else:
            self.storage_breaker.record_failure(now)
