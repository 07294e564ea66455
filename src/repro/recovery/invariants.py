"""Conservation-property monitors for the chaos soak.

The chaos harness composes crash points with the fault injector and
re-checks these invariants after every service iteration (and across
every crash/resume cycle):

* **Billing conservation** — the storage service's incrementally
  maintained MB·seconds integral equals a from-scratch re-integration
  of its object history, and never decreases; money spent on compute is
  exactly leased quanta × the quantum price.
* **Catalog/storage agreement** — no index partition is both built
  (live in the catalog) and deleted in storage: every built partition
  has a live object, and every live index object belongs to a built
  partition or is a tracked orphan awaiting delete-retry.
* **History monotonicity** — the fading window only moves forward:
  head position and mutation version never decrease, the window never
  exceeds its bound.
* **Schedule sanity** — no container runs two dataflow operators at
  once in any pending schedule (idle-slot interleaving must never
  double-book a slot).

Monitors are strictly read-only (they never advance the billing clock
or touch any RNG), so an invariant-checked run stays byte-identical.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

_REL_TOL = 1e-6
_ABS_TOL = 1e-6


@dataclass(frozen=True)
class InvariantViolation:
    """One broken conservation property at simulated time ``t``."""

    name: str
    t: float
    detail: str

    def __str__(self) -> str:
        return f"[{self.name}] t={self.t:.1f}: {self.detail}"


class InvariantError(RuntimeError):
    """Raised by the soak/explore harnesses on any monitor violation.

    ``context`` is a machine-readable reproduction recipe (seed, step
    index, strategy, schedule prefix, ...): enough to re-run the exact
    failing configuration from the error alone. The chaos failure
    report prints it as JSON next to the violations.
    """

    def __init__(
        self,
        violations: list[InvariantViolation],
        context: dict[str, Any] | None = None,
    ) -> None:
        super().__init__(
            "; ".join(str(v) for v in violations) or "invariant violation"
        )
        self.violations = violations
        self.context: dict[str, Any] = dict(context or {})


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= _ABS_TOL + _REL_TOL * max(abs(a), abs(b))


class InvariantMonitor:
    """Stateful monitor bound to one service run.

    Statefulness tracks the *monotone* invariants (history head, billing
    integral) across checks — including across a crash/resume boundary,
    where the caller re-binds the monitor to the restored service and
    the monotone watermarks must still hold.
    """

    def __init__(self, service: Any) -> None:
        self.service = service
        self._last_head = 0
        self._last_version = 0
        self._last_mb_seconds = 0.0

    def rebind(self, service: Any) -> None:
        """Point the monitor at a restored service (after a resume).

        Watermarks are *kept*: recovery may rewind state at most to the
        last durable commit, never behind what a previous check already
        observed as settled... except that a crash legitimately rolls
        back to the last snapshot/commit, so the watermarks reset to the
        restored service's current values rather than asserting against
        pre-crash ones.
        """
        self.service = service
        self._last_head = service.tuner.history.head_position
        self._last_version = service.tuner.history.mutation_version
        self._last_mb_seconds = service.storage.accounted_mb_seconds

    def check(self, state: Any, t: float) -> list[InvariantViolation]:
        """Run every monitor; returns the (hopefully empty) violations."""
        violations: list[InvariantViolation] = []
        self._check_billing(t, violations)
        self._check_catalog_storage(t, violations)
        self._check_history(t, violations)
        self._check_schedules(state, t, violations)
        self._check_money(state, t, violations)
        return violations

    # ------------------------------------------------------------------
    def _check_billing(self, t: float, out: list[InvariantViolation]) -> None:
        storage = self.service.storage
        maintained = storage.accounted_mb_seconds
        recomputed = storage.recompute_mb_seconds()
        if not _close(maintained, recomputed):
            out.append(
                InvariantViolation(
                    "billing-conservation",
                    t,
                    f"maintained integral {maintained!r} != recomputed "
                    f"{recomputed!r}",
                )
            )
        if maintained < self._last_mb_seconds - _ABS_TOL:
            out.append(
                InvariantViolation(
                    "billing-monotone",
                    t,
                    f"billing integral went backwards: {maintained!r} < "
                    f"{self._last_mb_seconds!r}",
                )
            )
        self._last_mb_seconds = max(self._last_mb_seconds, maintained)

    def _check_catalog_storage(
        self, t: float, out: list[InvariantViolation]
    ) -> None:
        service = self.service
        storage = service.storage
        built_paths: set[str] = set()
        all_index_paths: set[str] = set()
        for name in sorted(service.catalog.indexes):
            index = service.catalog.indexes[name]
            for pid in index.partitions:
                path = index.spec.path(pid)
                all_index_paths.add(path)
                if index.partitions[pid].built:
                    built_paths.add(path)
                    if not storage.exists(path):
                        out.append(
                            InvariantViolation(
                                "catalog-storage",
                                t,
                                f"partition {name}[{pid}] is built but its "
                                f"object {path} is deleted in storage",
                            )
                        )
        orphans = set(service._orphan_paths)
        for path in storage.live_paths():
            if path in all_index_paths and path not in built_paths:
                if path not in orphans:
                    out.append(
                        InvariantViolation(
                            "catalog-storage",
                            t,
                            f"live index object {path} has no built partition "
                            "and is not a tracked orphan",
                        )
                    )

    def _check_history(self, t: float, out: list[InvariantViolation]) -> None:
        history = self.service.tuner.history
        if history.head_position < self._last_head:
            out.append(
                InvariantViolation(
                    "history-monotone",
                    t,
                    f"head position went backwards: {history.head_position} "
                    f"< {self._last_head}",
                )
            )
        if history.mutation_version < self._last_version:
            out.append(
                InvariantViolation(
                    "history-monotone",
                    t,
                    f"mutation version went backwards: "
                    f"{history.mutation_version} < {self._last_version}",
                )
            )
        if history.end_position < history.head_position:
            out.append(
                InvariantViolation(
                    "history-window",
                    t,
                    f"end {history.end_position} < head {history.head_position}",
                )
            )
        if (
            history.max_records is not None
            and len(history) > history.max_records
        ):
            out.append(
                InvariantViolation(
                    "history-window",
                    t,
                    f"window holds {len(history)} records, bound is "
                    f"{history.max_records}",
                )
            )
        self._last_head = max(self._last_head, history.head_position)
        self._last_version = max(self._last_version, history.mutation_version)

    def _check_schedules(
        self, state: Any, t: float, out: list[InvariantViolation]
    ) -> None:
        for _finish, _result, decision, _app in state.pending:
            schedule = decision.chosen.schedule
            by_container: dict[int, list[Any]] = {}
            for assignment in schedule.dataflow_assignments():
                by_container.setdefault(assignment.container_id, []).append(
                    assignment
                )
            for cid, assignments in sorted(by_container.items()):
                assignments.sort(key=lambda a: (a.start, a.end))
                for prev, cur in zip(assignments, assignments[1:]):
                    if cur.start < prev.end - _ABS_TOL:
                        out.append(
                            InvariantViolation(
                                "schedule-overlap",
                                t,
                                f"container {cid} double-booked: "
                                f"{prev.op_name}[{prev.start:.1f},{prev.end:.1f}] "
                                f"overlaps {cur.op_name}[{cur.start:.1f},"
                                f"{cur.end:.1f}]",
                            )
                        )

    def _check_money(
        self, state: Any, t: float, out: list[InvariantViolation]
    ) -> None:
        metrics = state.metrics
        quanta = sum(o.money_quanta for o in metrics.finished())
        if quanta < 0:
            out.append(
                InvariantViolation(
                    "money-conservation", t, f"negative leased quanta {quanta}"
                )
            )
        # compute_dollars is defined as leased quanta × the $0.10 quantum
        # price — re-derive it independently from the outcomes.
        expected = quanta * 0.1
        if not _close(metrics.compute_dollars, expected):
            out.append(
                InvariantViolation(
                    "money-conservation",
                    t,
                    f"compute dollars {metrics.compute_dollars!r} != "
                    f"leased quanta × price {expected!r}",
                )
            )
        mb_seconds = self.service.storage.accounted_mb_seconds
        if mb_seconds < -_ABS_TOL:
            out.append(
                InvariantViolation(
                    "money-conservation",
                    t,
                    f"negative storage integral {mb_seconds!r}",
                )
            )
