"""Retry policy: exponential backoff with jitter and per-class overrides.

The delay of attempt ``k`` (0-based, i.e. the wait before the k-th
retry) is ``min(max_delay, base * multiplier**k)``, stretched by a
uniform jitter in ``[1 - jitter, 1 + jitter]``. Jitter draws come from
the policy's own seeded RNG stream, so enabling retries never perturbs
workload or simulator randomness.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from repro.faults.injector import FaultKind

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class RetryOverride:
    """Per-fault-class overrides of the base policy (None = inherit)."""

    max_attempts: int | None = None
    base_delay_s: float | None = None
    multiplier: float | None = None


class RetryPolicy:
    """Exponential backoff with jitter, a cap, and per-class overrides."""

    def __init__(
        self,
        max_attempts: int = 4,
        base_delay_s: float = 1.0,
        multiplier: float = 2.0,
        max_delay_s: float = 60.0,
        jitter: float = 0.1,
        overrides: dict[FaultKind, RetryOverride] | None = None,
        rng: np.random.Generator | None = None,
    ) -> None:
        # Aggregate every bad knob into one error (cf. FaultProfile).
        problems: list[str] = []
        if max_attempts < 1:
            problems.append(f"max_attempts must be at least 1, got {max_attempts}")
        if base_delay_s < 0:
            problems.append(f"base_delay_s must be non-negative, got {base_delay_s}")
        if multiplier < 1.0:
            problems.append(f"multiplier must be >= 1, got {multiplier}")
        if max_delay_s < 0:
            problems.append(f"max_delay_s must be non-negative, got {max_delay_s}")
        if not 0.0 <= jitter < 1.0:
            problems.append(f"jitter must be in [0, 1), got {jitter}")
        if problems:
            raise ValueError("invalid RetryPolicy: " + "; ".join(problems))
        self.max_attempts = max_attempts
        self.base_delay_s = base_delay_s
        self.multiplier = multiplier
        self.max_delay_s = max_delay_s
        self.jitter = jitter
        self.overrides = dict(overrides) if overrides else {}
        self.rng = rng if rng is not None else np.random.default_rng(0)

    # ------------------------------------------------------------------
    def attempts_for(self, kind: FaultKind | None = None) -> int:
        override = self.overrides.get(kind) if kind is not None else None
        if override is not None and override.max_attempts is not None:
            return override.max_attempts
        return self.max_attempts

    def delay_s(self, attempt: int, kind: FaultKind | None = None) -> float:
        """Backoff before retry number ``attempt`` (0-based), jittered."""
        if attempt < 0:
            raise ValueError("attempt must be non-negative")
        base = self.base_delay_s
        multiplier = self.multiplier
        override = self.overrides.get(kind) if kind is not None else None
        if override is not None:
            if override.base_delay_s is not None:
                base = override.base_delay_s
            if override.multiplier is not None:
                multiplier = override.multiplier
        delay = min(self.max_delay_s, base * multiplier**attempt)
        if self.jitter > 0:
            delay *= float(self.rng.uniform(1.0 - self.jitter, 1.0 + self.jitter))
        logger.debug("backoff %.3fs before retry %d (%s)", delay, attempt,
                     kind.value if kind is not None else "default")
        return delay
