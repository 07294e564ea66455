"""Seeded fault injector: the failure model of the execution layer.

Each failure class fires independently per *opportunity* (an operator
attempt, a build attempt, a storage call) with its configured rate. All
randomness comes from the injector's own ``numpy`` generator, seeded
separately from the workload and simulator streams: with every rate at
zero the injector never draws, so experiments without faults reproduce
the fault-free trajectories bit for bit.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

logger = logging.getLogger(__name__)


class TransientStorageError(RuntimeError):
    """A storage put/delete failed transiently; the caller may retry."""

    def __init__(self, operation: str, path: str) -> None:
        super().__init__(f"transient storage {operation} failure at {path!r}")
        self.operation = operation
        self.path = path


class FaultKind(Enum):
    """Failure classes the injector can fire."""

    OPERATOR_TRANSIENT = "operator_transient"
    CONTAINER_CRASH = "container_crash"
    STORAGE_PUT = "storage_put"
    STORAGE_DELETE = "storage_delete"
    STRAGGLER = "straggler"
    BUILD_TRANSIENT = "build_transient"


@dataclass(frozen=True)
class FaultProfile:
    """Failure rates and recovery knobs of one experiment.

    Attributes:
        operator_failure_rate: Probability a dataflow operator attempt
            fails transiently (lost partway, retried with backoff).
        container_crash_rate: Probability an operator attempt takes its
            container down (preemption/crash): progress is lost, the
            rest of the quantum is forfeited, and the operator restarts
            on a respawned container after ``respawn_delay_s``.
        storage_put_failure_rate: Probability a storage put is lost.
        storage_delete_failure_rate: Probability a storage delete fails
            (the object lingers, billed, until a later retry succeeds).
        straggler_rate: Probability an operator attempt runs on a slow
            machine, stretching its runtime by a factor drawn uniformly
            from [1, ``straggler_slowdown``].
        straggler_slowdown: Upper bound of the straggler stretch factor.
        respawn_delay_s: Time to re-lease a container after a crash.
        checkpoint_interval_s: Builds write a checkpoint every this many
            seconds of build work; a preempted/crashed/failed build
            keeps ``floor(progress / interval) * interval`` seconds and
            resumes from there on its next attempt. 0 disables
            checkpointing (preempted builds restart from scratch).
    """

    operator_failure_rate: float = 0.0
    container_crash_rate: float = 0.0
    storage_put_failure_rate: float = 0.0
    storage_delete_failure_rate: float = 0.0
    straggler_rate: float = 0.0
    straggler_slowdown: float = 3.0
    respawn_delay_s: float = 5.0
    checkpoint_interval_s: float = 0.0

    def __post_init__(self) -> None:
        # Collect every bad field before raising: a profile built from a
        # config file or CLI overrides should report all its mistakes in
        # one round trip, not one per edit-and-retry.
        problems: list[str] = []
        for name in (
            "operator_failure_rate",
            "container_crash_rate",
            "storage_put_failure_rate",
            "storage_delete_failure_rate",
            "straggler_rate",
        ):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                problems.append(f"{name} must be in [0, 1], got {rate}")
        if self.straggler_slowdown < 1.0:
            problems.append(
                f"straggler_slowdown must be >= 1, got {self.straggler_slowdown}"
            )
        if self.respawn_delay_s < 0:
            problems.append(
                f"respawn_delay_s must be non-negative, got {self.respawn_delay_s}"
            )
        if self.checkpoint_interval_s < 0:
            problems.append(
                "checkpoint_interval_s must be non-negative, got "
                f"{self.checkpoint_interval_s}"
            )
        if problems:
            raise ValueError("invalid FaultProfile: " + "; ".join(problems))

    @property
    def any_faults(self) -> bool:
        """Whether any failure class can ever fire."""
        return (
            self.operator_failure_rate > 0
            or self.container_crash_rate > 0
            or self.storage_put_failure_rate > 0
            or self.storage_delete_failure_rate > 0
            or self.straggler_rate > 0
        )


@dataclass
class FaultStats:
    """Counts of injected faults, by kind."""

    by_kind: dict[str, int] = field(default_factory=dict)

    def record(self, kind: FaultKind) -> None:
        self.by_kind[kind.value] = self.by_kind.get(kind.value, 0) + 1

    @property
    def total(self) -> int:
        return sum(self.by_kind.values())


class FaultInjector:
    """Draws failures from a dedicated seeded RNG stream.

    Every ``maybe_*`` method short-circuits without consuming randomness
    when its rate is zero, so a zero-rate injector is a true no-op.
    """

    def __init__(
        self,
        profile: FaultProfile | None = None,
        rng: np.random.Generator | None = None,
    ) -> None:
        self.profile = profile if profile is not None else FaultProfile()
        self.rng = rng if rng is not None else np.random.default_rng(0)
        self.stats = FaultStats()

    @property
    def active(self) -> bool:
        return self.profile.any_faults

    # ------------------------------------------------------------------
    def _fire(self, rate: float, kind: FaultKind) -> bool:
        if rate <= 0.0:
            return False
        if float(self.rng.random()) < rate:
            self.stats.record(kind)
            logger.debug("fault injected: %s", kind.value)
            return True
        return False

    def operator_fails(self) -> bool:
        """One dataflow-operator attempt fails transiently."""
        return self._fire(self.profile.operator_failure_rate, FaultKind.OPERATOR_TRANSIENT)

    def container_crashes(self) -> bool:
        """One operator attempt takes its container down."""
        return self._fire(self.profile.container_crash_rate, FaultKind.CONTAINER_CRASH)

    def build_fails(self) -> bool:
        """One index-build attempt fails transiently (never retried inline)."""
        return self._fire(self.profile.operator_failure_rate, FaultKind.BUILD_TRANSIENT)

    def storage_put_fails(self) -> bool:
        return self._fire(self.profile.storage_put_failure_rate, FaultKind.STORAGE_PUT)

    def storage_delete_fails(self) -> bool:
        return self._fire(self.profile.storage_delete_failure_rate, FaultKind.STORAGE_DELETE)

    def straggles(self) -> bool:
        """One operator attempt lands on a slow machine."""
        return self._fire(self.profile.straggler_rate, FaultKind.STRAGGLER)

    # ------------------------------------------------------------------
    def straggler_factor(self) -> float:
        """Runtime stretch factor of a straggling attempt."""
        return float(self.rng.uniform(1.0, self.profile.straggler_slowdown))

    def failure_point(self) -> float:
        """Fraction of an attempt's runtime elapsed when the fault hit."""
        return float(self.rng.random())

    def checkpointed(self, progress_s: float) -> float:
        """Durable progress of an interrupted build: the last checkpoint."""
        interval = self.profile.checkpoint_interval_s
        if interval <= 0 or progress_s <= 0:
            return 0.0
        return math.floor(progress_s / interval + 1e-9) * interval
