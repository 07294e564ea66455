"""Interleaving-specific invariants.

:class:`~repro.recovery.invariants.InvariantMonitor` checks *state*
consistency at quiescent points, but some ordering bugs leave the state
looking perfectly consistent — the canonical example is a delete racing
a build apply: the delete drops the index's partitions, a late build
apply then re-inserts one, and at the end of the epoch the catalog and
storage agree with each other while the tuner believes the index is
gone (and its storage bills forever). Catching those needs the *order*
of completed actions, which only the schedule controller sees; this
oracle records it and is consulted at every epoch end.
"""

from __future__ import annotations

from typing import Any

from repro.explore.hooks import Action
from repro.recovery.invariants import InvariantViolation


class CrossTenantOracle:
    """Bulkhead isolation as an ordering invariant.

    Two service instances share nothing: every catalog/storage mutation
    stays inside the service that issued the action. This oracle
    watches an integer digest of each tenant's state — built partition
    count plus live storage objects, both ints so no float comparison
    is involved — and flags any micro-step after which *more than one*
    tenant's digest changed: that can only happen if an action reached
    across a bulkhead (e.g. a shared storage account or catalog object).
    """

    def __init__(self, services: list[Any]) -> None:
        self.services = services
        self._last = [self._digest(s) for s in services]
        self._step_no = 0

    @staticmethod
    def _digest(service: Any) -> tuple[int, int]:
        built = sum(
            len(index.built_partition_ids())
            for index in service.catalog.indexes.values()
        )
        return (built, service.storage.live_count)

    def on_step(self, action: Action) -> list[InvariantViolation]:
        """Check one executed micro-step; returns any leak violations."""
        self._step_no += 1
        current = [self._digest(s) for s in self.services]
        changed = [
            i for i, (a, b) in enumerate(zip(self._last, current)) if a != b
        ]
        self._last = current
        if len(changed) > 1:
            return [
                InvariantViolation(
                    "cross-tenant-leak",
                    float(self._step_no),
                    f"micro-step {self._step_no} ({action.kind}:{action.key}) "
                    f"mutated tenants {changed}: bulkhead isolation allows "
                    f"one action to touch at most one tenant's catalog/storage",
                )
            ]
        return []


class InterleavingOracle:
    """Order-sensitive invariant checks over one schedule run."""

    def __init__(self, service: Any) -> None:
        self.service = service
        self._step_no = 0
        #: index name -> micro-step at which its delete action completed
        #: (within the current epoch).
        self._deleted_at: dict[str, int] = {}
        #: (index name, partition id, completion micro-step) of build
        #: actions completed within the current epoch.
        self._builds_done: list[tuple[str, int, int]] = []

    def on_step(self, action: Action) -> None:
        """Record one executed micro-step (called for every advance)."""
        self._step_no += 1
        if not action.done:
            return
        if action.kind in ("delete", "watchdog_delete"):
            name = action.key.split(":", 1)[1]
            self._deleted_at[name] = self._step_no
        elif action.kind == "build":
            _, name, pid = action.key.split(":")
            self._builds_done.append((name, int(pid), self._step_no))

    def check_epoch_end(self, t: float) -> list[InvariantViolation]:
        """Run the ordering checks; resets the per-epoch state."""
        out: list[InvariantViolation] = []
        for name, pid, step in self._builds_done:
            deleted_step = self._deleted_at.get(name)
            if deleted_step is None or step < deleted_step:
                continue
            index = self.service.catalog.indexes.get(name)
            if index is not None and index.partitions[pid].built:
                out.append(
                    InvariantViolation(
                        "delete-racing-build",
                        t,
                        f"index {name}[{pid}] resurrected: its delete "
                        f"completed at micro-step {deleted_step} but a racing "
                        f"build apply completed at micro-step {step}, leaving "
                        f"a built partition the tuner believes deleted",
                    )
                )
        self._deleted_at.clear()
        self._builds_done.clear()
        return out
