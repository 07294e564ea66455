"""Experiment configuration (Table 3 defaults).

| Parameter            | Paper value                       |
|----------------------|-----------------------------------|
| Quantum size         | 60 seconds                        |
| Quantum cost         | $0.1                              |
| Storage cost         | $1e-4 per MB per quantum          |
| Max containers       | 100                               |
| Operators / dataflow | 100                               |
| α                    | 0.5                               |
| Index gain fading D  | 1 quantum                         |
| Poisson λ            | 1 quantum (60 s)                  |
| Total time           | 720 quanta                        |
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

from repro.cloud.pricing import PricingModel
from repro.faults.injector import FaultProfile
from repro.tuning.gain import GainParameters

#: Valid load-shedding policies of the multi-tenant admission controller.
SHED_POLICIES = ("reject", "defer", "priority")


@dataclass(frozen=True)
class ExperimentConfig:
    """All knobs of one end-to-end experiment run.

    The scheduling-related caps (``max_skyline``, ``scheduler_containers``)
    control the bounded search of the skyline scheduler; they trade
    fidelity for runtime and are not paper parameters.
    """

    pricing: PricingModel = field(default_factory=PricingModel)
    max_containers: int = 100
    operators_per_dataflow: int = 100
    alpha: float = 0.5
    fade_quanta: float = 5.0
    window_quanta: float = 60.0
    storage_window_quanta: float = 5.0
    poisson_mean_s: float = 60.0
    total_time_s: float = 720 * 60.0
    runtime_error: float = 0.10
    max_skyline: int = 4
    scheduler_containers: int = 20
    max_candidates: int = 120
    history_max_records: int = 300
    max_queued_gain: int = 30
    random_builds_per_dataflow: int = 40
    # Batch data updates (Section 3): every interval one table gets a new
    # version of some partitions, invalidating indexes built on them.
    # 0 disables updates (the paper's evaluation setting: "updates are
    # done every few days" — beyond the 720-quanta horizon).
    update_interval_s: float = 0.0
    update_partitions: int = 2
    # Container reuse + local-disk caching across dataflows (Section 6.1:
    # idle containers survive to the end of their leased quantum and
    # their caches make repeat reads free). Off by default so the
    # headline benchmarks isolate the index-management effect; the
    # pooling ablation quantifies it.
    enable_pooling: bool = False
    # Fault injection (all rates default to 0 = the paper's reliable
    # cloud; the injector draws from its own seeded RNG stream, so a
    # zero-rate run is byte-identical to the fault-free simulator).
    operator_failure_rate: float = 0.0
    container_crash_rate: float = 0.0
    storage_put_failure_rate: float = 0.0
    storage_delete_failure_rate: float = 0.0
    straggler_rate: float = 0.0
    straggler_slowdown: float = 3.0
    respawn_delay_s: float = 5.0
    checkpoint_interval_s: float = 0.0
    # Retry policy for transient dataflow-operator failures (build
    # operators are never retried inline: their partitions re-enter the
    # tuner's candidate pool instead).
    retry_max_attempts: int = 4
    retry_base_delay_s: float = 1.0
    retry_multiplier: float = 2.0
    retry_max_delay_s: float = 60.0
    retry_jitter: float = 0.1
    # Index ROI accounting (repro.obs.ledger): reconcile predicted gains
    # against realized per-dataflow benefit and emit index_probe /
    # index_roi journal events plus ledger/* metrics. Off by default so
    # zero-flag runs stay byte-identical to builds without the ledger.
    roi_ledger: bool = False
    # Regression watchdog rollback: drop an index whose realized benefit
    # stays below its accrued storage cost for ``watchdog_hysteresis``
    # consecutive confirmation windows. Implies the ledger. Off by
    # default — with it off the watchdog (if the ledger is on) only
    # observes and emits index_regression events.
    watchdog_rollback: bool = False
    # Confirmation window of the watchdog, in billing quanta: realized
    # benefit and storage spend are compared over windows of this length.
    watchdog_window_quanta: float = 10.0
    # Consecutive breached windows before an index is flagged (hysteresis
    # so one quiet window does not kill a good index).
    watchdog_hysteresis: int = 2
    # --- Multi-tenant front end (repro.tenancy) ---------------------------
    # Number of tenant streams. 1 (the default) runs the classic
    # single-tenant loop untouched; the tenancy layer only engages above
    # it, so default-config runs stay byte-identical to pre-tenancy builds.
    tenants: int = 1
    # Arrival-rate multiplier of tenant 0 (the flash-crowd tenant): its
    # mean inter-arrival time is divided by this. 1.0 = uniform tenants.
    tenant_skew: float = 1.0
    # Bounded per-tenant submission queue: arrivals are shed (or
    # deferred, per shed_policy) while this many of the tenant's admitted
    # dataflows are still in flight.
    tenant_queue_depth: int = 64
    # Token-bucket rate limit per tenant, in admitted dataflows per
    # billing quantum. 0 disables rate limiting.
    tenant_rate_quanta: float = 0.0
    # Token-bucket capacity (burst allowance), in dataflows.
    tenant_burst: float = 8.0
    # Fair-share weights, one per tenant (padded with 1.0); empty means
    # equal shares. Higher weight = larger guaranteed share and higher
    # shed priority under the "priority" policy.
    tenant_weights: tuple[float, ...] = ()
    # What happens to a submission the admission controller cannot take:
    # "reject" sheds it, "defer" re-queues it tenant_defer_quanta later
    # (up to tenant_max_defers times), "priority" defers above-minimum-
    # weight tenants and sheds the lowest-weight ones outright.
    shed_policy: str = "reject"
    tenant_defer_quanta: float = 1.0
    tenant_max_defers: int = 3
    # Shared admissions per billing quantum across all tenants (the pool
    # bulkhead). 0 derives max_containers // scheduler_containers — the
    # number of dataflows the shared container pool can run concurrently.
    admission_quantum_slots: int = 0
    # Per-tenant circuit breakers around index builds and storage
    # deletes: open after this many consecutive failures, half-open after
    # breaker_cooldown_quanta, close again after breaker_probes probe
    # successes. 0 disables the breakers.
    breaker_threshold: int = 0
    breaker_cooldown_quanta: float = 5.0
    breaker_probes: int = 1
    # Per-dataflow deadline budget, in billing quanta: a dataflow that
    # waited longer than this for a slot skips tuning ("indexed" mode);
    # past twice the budget it runs unindexed. 0 disables deadlines.
    deadline_quanta: float = 0.0
    seed: int = 42

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        """Reject configurations that would silently corrupt a run."""
        if not 0.0 <= self.runtime_error <= 1.0:
            raise ValueError(
                f"runtime_error must be in [0, 1], got {self.runtime_error}"
            )
        rate_fields = (
            "operator_failure_rate",
            "container_crash_rate",
            "storage_put_failure_rate",
            "storage_delete_failure_rate",
            "straggler_rate",
            "retry_jitter",
        )
        for name in rate_fields:
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {rate}")
        interval_fields = (
            "poisson_mean_s",
            "total_time_s",
            "update_interval_s",
            "respawn_delay_s",
            "checkpoint_interval_s",
            "retry_base_delay_s",
            "retry_max_delay_s",
        )
        for name in interval_fields:
            value = getattr(self, name)
            if value < 0:
                raise ValueError(f"{name} must be non-negative, got {value}")
        if self.straggler_slowdown < 1.0:
            raise ValueError(
                f"straggler_slowdown must be >= 1, got {self.straggler_slowdown}"
            )
        if self.retry_multiplier < 1.0:
            raise ValueError(
                f"retry_multiplier must be >= 1, got {self.retry_multiplier}"
            )
        if self.retry_max_attempts < 1:
            raise ValueError(
                f"retry_max_attempts must be at least 1, got {self.retry_max_attempts}"
            )
        if self.watchdog_window_quanta <= 0:
            raise ValueError(
                f"watchdog_window_quanta must be positive, "
                f"got {self.watchdog_window_quanta}"
            )
        if self.watchdog_hysteresis < 1:
            raise ValueError(
                f"watchdog_hysteresis must be at least 1, "
                f"got {self.watchdog_hysteresis}"
            )
        self._validate_tenancy()

    def _validate_tenancy(self) -> None:
        """Validate the tenancy/breaker/deadline knobs together.

        Aggregates every bad field into one error (cf. RetryPolicy and
        FaultProfile) so a misconfigured multi-tenant run reports all its
        problems at once instead of one per traceback.
        """
        problems: list[str] = []
        if self.tenants < 1:
            problems.append(f"tenants must be at least 1, got {self.tenants}")
        if self.tenant_skew < 1.0:
            problems.append(f"tenant_skew must be >= 1, got {self.tenant_skew}")
        if self.tenant_queue_depth < 1:
            problems.append(
                f"tenant_queue_depth must be at least 1, got {self.tenant_queue_depth}"
            )
        if self.tenant_rate_quanta < 0:
            problems.append(
                f"tenant_rate_quanta must be non-negative, got {self.tenant_rate_quanta}"
            )
        if self.tenant_burst < 1.0:
            problems.append(f"tenant_burst must be >= 1, got {self.tenant_burst}")
        if len(self.tenant_weights) > self.tenants:
            problems.append(
                f"tenant_weights has {len(self.tenant_weights)} entries "
                f"for {self.tenants} tenants"
            )
        if any(w <= 0 for w in self.tenant_weights):
            problems.append(
                f"tenant_weights must all be positive, got {self.tenant_weights}"
            )
        if self.shed_policy not in SHED_POLICIES:
            problems.append(
                f"shed_policy must be one of {', '.join(SHED_POLICIES)}, "
                f"got {self.shed_policy!r}"
            )
        if self.tenant_defer_quanta <= 0:
            problems.append(
                f"tenant_defer_quanta must be positive, got {self.tenant_defer_quanta}"
            )
        if self.tenant_max_defers < 0:
            problems.append(
                f"tenant_max_defers must be non-negative, got {self.tenant_max_defers}"
            )
        if self.admission_quantum_slots < 0:
            problems.append(
                f"admission_quantum_slots must be non-negative, "
                f"got {self.admission_quantum_slots}"
            )
        if self.breaker_threshold < 0:
            problems.append(
                f"breaker_threshold must be non-negative, got {self.breaker_threshold}"
            )
        if self.breaker_cooldown_quanta <= 0:
            problems.append(
                f"breaker_cooldown_quanta must be positive, "
                f"got {self.breaker_cooldown_quanta}"
            )
        if self.breaker_probes < 1:
            problems.append(
                f"breaker_probes must be at least 1, got {self.breaker_probes}"
            )
        if self.deadline_quanta < 0:
            problems.append(
                f"deadline_quanta must be non-negative, got {self.deadline_quanta}"
            )
        if problems:
            raise ValueError(
                "invalid tenancy configuration: " + "; ".join(problems)
            )

    def fault_profile(self) -> FaultProfile:
        return FaultProfile(
            operator_failure_rate=self.operator_failure_rate,
            container_crash_rate=self.container_crash_rate,
            storage_put_failure_rate=self.storage_put_failure_rate,
            storage_delete_failure_rate=self.storage_delete_failure_rate,
            straggler_rate=self.straggler_rate,
            straggler_slowdown=self.straggler_slowdown,
            respawn_delay_s=self.respawn_delay_s,
            checkpoint_interval_s=self.checkpoint_interval_s,
        )

    def gain_parameters(self) -> GainParameters:
        return GainParameters(
            alpha=self.alpha,
            fade_quanta=self.fade_quanta,
            window_quanta=self.window_quanta,
            storage_window_quanta=self.storage_window_quanta,
        )

    def scaled(self, fraction: float) -> "ExperimentConfig":
        """A copy with the time horizon scaled by ``fraction``."""
        if not 0 < fraction <= 1:
            raise ValueError("fraction must be in (0, 1]")
        from dataclasses import replace

        return replace(self, total_time_s=self.total_time_s * fraction)


def default_config() -> ExperimentConfig:
    """The Table 3 configuration, scaled down unless REPRO_FULL=1.

    The paper's full 720-quanta horizon takes under half a minute per
    GAIN run in this simulator (seed 7 on a 2-core x86-64 VM, as host
    load varied: 12-27 s with the LP interleaver, 7-18 s with the
    online one); the default benchmark horizon is 1/6 of it (120
    quanta, 1.5-6 s), which preserves every qualitative result. Set the
    environment variable ``REPRO_FULL=1`` to run the paper-scale
    horizon.
    """
    config = ExperimentConfig()
    if os.environ.get("REPRO_FULL") == "1":
        return config
    return config.scaled(1.0 / 6.0)
