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
        if self.total_time_s <= 0:
            raise ValueError(
                f"total_time_s must be positive, got {self.total_time_s}"
            )
        interval_fields = (
            "poisson_mean_s",
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
