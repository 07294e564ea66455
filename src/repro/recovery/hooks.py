"""Recovery hooks: the pure-stdlib leaf of :mod:`repro.recovery`.

Everything the *instrumented* layers (service, tuner, simulator,
storage) need from the recovery subsystem lives here, so that — exactly
like :mod:`repro.obs` and :mod:`repro.perf` — any layer may import it
without closing a package cycle (LAY01 lists it as an allowed leaf).
The heavyweight machinery (WAL, snapshots, the resume driver) sits in
the sibling modules *above* ``repro.core`` and is never imported from
below.

Two facilities:

* :class:`RecoveryLog` — the no-op write-ahead-log interface the
  service calls at every durable state mutation. The shared
  :data:`NOOP_RECOVERY` instance is the null object that makes
  recovery-disabled runs behaviour-identical (and byte-identical) to a
  build without recovery: call sites invoke it unconditionally, and it
  draws no randomness, reads no clock and keeps no state.
* **Crash points** — named barriers (:func:`crash_point`) threaded
  through the hot paths. With no :class:`CrashPlan` installed a barrier
  is a single global read; the chaos harness installs a plan that kills
  the process (or raises :class:`SimulatedCrash` for in-process tests)
  at one deterministic barrier hit or WAL record boundary, which is how
  the crash-recovery sweep visits *every* interleaving systematically
  instead of hoping random kills cover them.
"""

from __future__ import annotations

import os
import sys
from typing import Callable, Mapping

#: Exit code of a planned crash; the sweep driver asserts it to verify
#: the kill actually happened (vs. the run completing untouched).
CRASH_EXIT_CODE = 43

#: Every named crash barrier in the codebase, in rough execution order.
#: The sweep driver iterates this registry; :func:`crash_point` rejects
#: unknown names when a plan is active so the registry can never rot.
CRASH_POINTS: tuple[str, ...] = (
    "service.step",
    "service.pre_decide",
    "service.post_decide",
    "service.post_execute",
    "service.post_commit",
    "service.pre_finish",
    "tuner.pre_rank",
    "tuner.post_interleave",
    "simulator.pre_execute",
    "storage.pre_put",
    "storage.post_put",
    "storage.pre_delete",
    "recovery.pre_snapshot",
    "recovery.post_snapshot",
)

_CRASH_POINT_SET = frozenset(CRASH_POINTS)

#: Synthetic barrier labels used by WAL-boundary and torn-record kills.
WAL_RECORD_BARRIER = "wal.record"
WAL_TORN_BARRIER = "wal.torn"


class SimulatedCrash(BaseException):
    """An in-process planned crash (subclass of ``BaseException`` so it
    sails through ``except Exception`` handlers exactly like a kill)."""

    def __init__(self, barrier: str) -> None:
        super().__init__(f"simulated crash at {barrier!r}")
        self.barrier = barrier


class CrashPlan:
    """One deterministic kill: at a named barrier hit or WAL boundary.

    Attributes:
        point: Crash-point name to die at (``None`` = no barrier kill).
        hit: 1-based occurrence of ``point`` that triggers the kill
            (the same barrier fires once per service iteration).
        after_wal_record: Die immediately after the WAL record with this
            1-based ordinal has been durably appended.
        torn_wal_record: Die *midway* through writing this record,
            leaving a torn tail for recovery to truncate.
        hard: ``True`` kills the process via ``os._exit`` (subprocess
            sweeps); ``False`` raises :class:`SimulatedCrash` instead
            (fast in-process tests).
    """

    def __init__(
        self,
        point: str | None = None,
        hit: int = 1,
        after_wal_record: int | None = None,
        torn_wal_record: int | None = None,
        hard: bool = True,
    ) -> None:
        if point is not None and point not in _CRASH_POINT_SET:
            raise ValueError(
                f"unknown crash point {point!r}; valid names: "
                f"{', '.join(CRASH_POINTS)}"
            )
        if hit < 1:
            raise ValueError("hit must be >= 1")
        for name, value in (
            ("after_wal_record", after_wal_record),
            ("torn_wal_record", torn_wal_record),
        ):
            if value is not None and value < 1:
                raise ValueError(f"{name} must be >= 1")
        self.point = point
        self.hit = hit
        self.after_wal_record = after_wal_record
        self.torn_wal_record = torn_wal_record
        self.hard = hard
        self._hits = 0

    @classmethod
    def from_env(cls, environ: Mapping[str, str] | None = None) -> "CrashPlan | None":
        """The plan described by ``REPRO_CRASH_*`` variables, if any.

        * ``REPRO_CRASH_POINT`` — barrier name (with optional
          ``REPRO_CRASH_HIT``, default 1);
        * ``REPRO_CRASH_WAL_RECORD`` — die after appending record N;
        * ``REPRO_CRASH_WAL_TORN`` — die midway through record N.
        """
        env = environ if environ is not None else os.environ
        point = env.get("REPRO_CRASH_POINT") or None
        after = env.get("REPRO_CRASH_WAL_RECORD") or None
        torn = env.get("REPRO_CRASH_WAL_TORN") or None
        if point is None and after is None and torn is None:
            return None
        return cls(
            point=point,
            hit=int(env.get("REPRO_CRASH_HIT", "1")),
            after_wal_record=int(after) if after is not None else None,
            torn_wal_record=int(torn) if torn is not None else None,
        )

    # ------------------------------------------------------------------
    def trigger(self, barrier: str) -> None:
        """Carry out the kill (hard exit or simulated raise), after the
        callback installed by :func:`before_planned_crash`."""
        if _BEFORE_CRASH is not None:
            _BEFORE_CRASH()
        if self.hard:
            sys.stderr.write(f"repro: planned crash at {barrier}\n")
            sys.stderr.flush()
            sys.stdout.flush()
            os._exit(CRASH_EXIT_CODE)
        raise SimulatedCrash(barrier)

    def on_crash_point(self, name: str) -> None:
        if name != self.point:
            return
        self._hits += 1
        if self._hits == self.hit:
            self.trigger(f"{name}#{self.hit}")

    def on_wal_record(self, ordinal: int) -> None:
        """Called after record ``ordinal`` (1-based) is durably appended."""
        if ordinal == self.after_wal_record:
            self.trigger(f"{WAL_RECORD_BARRIER}#{ordinal}")

    def tears_record(self, ordinal: int) -> bool:
        """Whether record ``ordinal`` should be torn mid-write."""
        return ordinal == self.torn_wal_record


_ACTIVE_PLAN: CrashPlan | None = None

#: Run by every planned crash before it exits or raises. The snapshot
#: module installs its writer join here, so a planned crash leaves the
#: run directory as a synchronous snapshot writer would.
_BEFORE_CRASH: Callable[[], None] | None = None


def before_planned_crash(callback: Callable[[], None]) -> None:
    """Install the callback every planned crash runs before it exits or
    raises."""
    global _BEFORE_CRASH
    _BEFORE_CRASH = callback


def install_crash_plan(plan: CrashPlan | None) -> CrashPlan | None:
    """Install (or clear, with ``None``) the process crash plan.

    Returns the previously installed plan so tests can restore it.
    """
    global _ACTIVE_PLAN
    previous = _ACTIVE_PLAN
    _ACTIVE_PLAN = plan
    return previous


def active_crash_plan() -> CrashPlan | None:
    """The currently installed crash plan, or ``None``."""
    return _ACTIVE_PLAN


def crash_point(name: str) -> None:
    """A named crash barrier: free when no plan is installed.

    The name check runs only on the (cold) planned path, so the hot
    path costs one global load and one ``is None`` test.
    """
    plan = _ACTIVE_PLAN
    if plan is None:
        return
    if name not in _CRASH_POINT_SET:
        raise ValueError(
            f"crash_point({name!r}) is not in CRASH_POINTS; valid names: "
            f"{', '.join(CRASH_POINTS)}"
        )
    plan.on_crash_point(name)


# ----------------------------------------------------------------------
# The write-ahead-log interface the instrumented layers call
# ----------------------------------------------------------------------
class RecoveryLog:
    """No-op recovery log: the default sink wired into every service.

    A null object, like :class:`repro.obs.journal.Journal`: the service
    calls it without checking whether recovery is on, and the no-op
    draws no randomness, reads no clock and keeps no state, so a
    recovery-disabled run is byte-identical to one without recovery
    compiled in at all.
    """

    __slots__ = ()

    #: Whether mutations are durably journalled (read by tooling that
    #: needs the WAL itself, such as the benchmark's WAL counters).
    enabled: bool = False

    def record(self, kind: str, t: float, **fields: object) -> None:
        """Append one state-mutation record at simulated time ``t``."""

    def on_run_begin(self, service: object, state: object) -> None:
        """The run loop is about to start (WAL header + base snapshot)."""

    def commit(self, service: object, state: object, t: float) -> None:
        """One service iteration completed; maybe snapshot."""

    def on_run_finished(self, service: object, state: object, t: float) -> None:
        """The run completed; seal the WAL."""

    def close(self) -> None:
        """Release any durable resources (no-op here)."""


#: Shared no-op instance (cf. ``repro.obs.NOOP_OBS``).
NOOP_RECOVERY = RecoveryLog()
