"""Execution simulator: runs an interleaved schedule against the clock.

Implements the execution semantics of Section 6.1: operators execute on
their assigned containers in schedule order; actual runtimes may deviate
from the estimates (estimation error); build-index operators (priority
-1) are *preempted* — stopped when a dataflow operator arrives at their
container or when the leased quantum expires — and a stopped build
leaves its index partition unbuilt (it is re-queued with a later
dataflow). Dataflow execution is therefore never delayed by builds.

Every execution is one walk: the dataflow operators run in schedule
order, then each container's builds fill its idle gaps, cut at quantum
boundaries by :func:`~repro.scheduling.schedule.quantum_gaps`, the rule
the planner's idle slots come from. Only the lease policy differs
between the two entry points:

* :meth:`ExecutionSimulator.execute` leases dedicated containers. Times
  are schedule-relative; each lease runs from the quantum of its first
  operator start to that of its last end; money is the lease integral.
* :meth:`ExecutionSimulator.execute_pooled` maps the schedule's
  containers onto a :class:`~repro.core.pool.ContainerPool`. Times are
  absolute; cached inputs transfer for free; money is the quanta the
  pool newly paid.
"""

from __future__ import annotations

import logging
from collections.abc import Callable, Mapping
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from repro.cloud.container import ContainerSpec, PAPER_CONTAINER
from repro.cloud.pricing import PricingModel
from repro.core.numeric import is_zero, le_tol
from repro.faults.injector import FaultInjector, FaultKind
from repro.faults.retry import RetryPolicy
from repro.interleave.lp import InterleavedSchedule
from repro.interleave.slots import parse_build_op_name
from repro.explore.hooks import note
from repro.obs import NOOP_OBS, Observation
from repro.recovery.hooks import crash_point
from repro.scheduling.schedule import lease_quanta, quantum_gaps

if TYPE_CHECKING:
    from repro.dataflow.graph import Dataflow
    from repro.core.pool import ContainerPool
    from repro.scheduling.schedule import Assignment, Schedule

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class CompletedBuild:
    """One index partition whose build operator ran to completion."""

    index_name: str
    partition_id: int
    finished_at: float  # absolute simulation seconds


@dataclass(frozen=True)
class BuildCheckpoint:
    """Durable partial progress of an interrupted index build.

    ``seconds`` is the checkpointed build work achieved *in this
    execution* (already floored to the checkpoint interval); the service
    accumulates it into the partition's total progress, which the tuner
    subtracts from future build-candidate durations.
    """

    index_name: str
    partition_id: int
    seconds: float


@dataclass
class _OpFaultTally:
    """Per-execution counters of injected operator faults."""

    retries: int = 0
    recovered: int = 0
    exhausted: int = 0
    crashes: int = 0
    stragglers: int = 0

    def merge(self, other: "_OpFaultTally") -> None:
        self.retries += other.retries
        self.recovered += other.recovered
        self.exhausted += other.exhausted
        self.crashes += other.crashes
        self.stragglers += other.stragglers


@dataclass
class ExecutionResult:
    """Observed outcome of executing one interleaved schedule.

    Times are absolute simulation seconds (the schedule's relative times
    shifted by the execution start).
    """

    dataflow_name: str
    start_time: float
    finish_time: float
    money_quanta: int
    dataflow_ops: int = 0
    builds_completed: list[CompletedBuild] = field(default_factory=list)
    builds_killed: int = 0
    builds_unstarted: int = 0
    builds_failed: int = 0
    checkpoints: list[BuildCheckpoint] = field(default_factory=list)
    operator_retries: int = 0
    operators_recovered: int = 0
    retries_exhausted: int = 0
    containers_crashed: int = 0
    stragglers: int = 0

    @property
    def makespan_seconds(self) -> float:
        return self.finish_time - self.start_time

    @property
    def builds_attempted(self) -> int:
        return len(self.builds_completed) + self.builds_killed + self.builds_failed


class _Interval(NamedTuple):
    start: float
    end: float


class ExecutionSimulator:
    """Replays interleaved schedules with runtime noise and preemption.

    Attributes:
        runtime_error: Maximum relative deviation of actual from
            estimated operator runtime (Section 6.2's error model); 0
            executes exactly as scheduled.
    """

    def __init__(
        self,
        pricing: PricingModel,
        container: ContainerSpec = PAPER_CONTAINER,
        runtime_error: float = 0.0,
        rng: np.random.Generator | None = None,
        injector: FaultInjector | None = None,
        retry: RetryPolicy | None = None,
        obs: Observation | None = None,
    ) -> None:
        if runtime_error < 0:
            raise ValueError("runtime_error must be non-negative")
        self.pricing = pricing
        self.container = container
        self.runtime_error = runtime_error
        self.rng = rng if rng is not None else np.random.default_rng(0)
        # A zero-rate injector never draws: the null object of faults.
        self.injector = injector if injector is not None else FaultInjector()
        self.retry = retry if retry is not None else RetryPolicy()
        self.obs = obs if obs is not None else NOOP_OBS
        # Deterministic trace track id: one pid per execution, in call
        # order (the service loop is single-threaded and deterministic).
        self._exec_seq = 0

    # ------------------------------------------------------------------
    def _noise(self) -> float:
        if is_zero(self.runtime_error):
            return 1.0
        return float(self.rng.uniform(1.0 - self.runtime_error, 1.0 + self.runtime_error))

    def _operator_elapsed(self, base: float) -> tuple[float, _OpFaultTally]:
        """Wall-clock one dataflow operator occupies under faults.

        Attempts run until one succeeds or the retry budget is spent:
        stragglers stretch an attempt; a transient failure loses the
        partial work and waits out the policy's backoff; a container
        crash loses the work, forfeits the quantum remainder (billed by
        the caller) and pays the respawn delay. If every attempt fails,
        the operator moves to a freshly respawned container where the
        transient condition is assumed cleared and runs once more —
        dataflows always complete, at an honest time/money price.
        """
        injector = self.injector
        tally = _OpFaultTally()
        elapsed = 0.0
        for attempt in range(self.retry.attempts_for(FaultKind.OPERATOR_TRANSIENT)):
            duration = base
            if injector.straggles():
                duration *= injector.straggler_factor()
                tally.stragglers += 1
            if injector.container_crashes():
                elapsed += duration * injector.failure_point()
                elapsed += injector.profile.respawn_delay_s
                tally.crashes += 1
                tally.retries += 1
                continue
            if injector.operator_fails():
                elapsed += duration * injector.failure_point()
                elapsed += self.retry.delay_s(attempt, FaultKind.OPERATOR_TRANSIENT)
                tally.retries += 1
                continue
            elapsed += duration
            if attempt > 0:
                tally.recovered += 1
            return elapsed, tally
        tally.exhausted += 1
        elapsed += injector.profile.respawn_delay_s + base
        logger.debug(
            "retry budget exhausted after %d attempts; clean run on respawned container",
            self.retry.attempts_for(FaultKind.OPERATOR_TRANSIENT),
        )
        return elapsed, tally

    def execute(self, interleaved: InterleavedSchedule, start_time: float) -> ExecutionResult:
        """Execute the schedule on dedicated containers from ``start_time``
        (absolute s)."""
        return self._execute(interleaved, start_time, None)

    def execute_pooled(
        self, interleaved: InterleavedSchedule, start_time: float, pool: ContainerPool
    ) -> ExecutionResult:
        """Execute on a :class:`~repro.core.pool.ContainerPool`.

        Differences from :meth:`execute`:

        * schedule containers map onto pooled containers, reusing idle
          ones whose current quantum is already paid;
        * an operator's input transfer is skipped for files already in
          the container's LRU cache (and reads populate the cache);
        * money is the *marginal* quanta this execution added to the
          pool's leases.
        """
        return self._execute(interleaved, start_time, pool)

    def _execute(
        self,
        interleaved: InterleavedSchedule,
        start_time: float,
        pool: ContainerPool | None,
    ) -> ExecutionResult:
        """The operator walk under the dedicated (no ``pool``) or pooled
        lease policy, then the builds in each leased container's gaps."""
        crash_point("simulator.pre_execute")
        note("sim.slot_fill")
        schedule = interleaved.schedule
        dataflow = schedule.dataflow
        obs = self.obs
        pid = self._exec_seq
        self._exec_seq += 1
        if obs.enabled:
            obs.tracer.name_process(pid, dataflow.name)

        df_assignments = sorted(
            schedule.dataflow_assignments(), key=lambda a: (a.start, a.end)
        )
        faults = _OpFaultTally()
        if pool is None:
            offset = start_time
            makespan, money_quanta, leases, busy = self._dataflow_phase(
                dataflow, df_assignments, faults, pid, start_time
            )
        else:
            offset = 0.0
            makespan, money_quanta, leases, busy = self._pooled_phase(
                schedule, df_assignments, faults, pid, start_time, pool
            )
        result = ExecutionResult(
            dataflow_name=dataflow.name,
            start_time=start_time,
            finish_time=start_time + makespan,
            # Each container crash forfeits the remainder of its quantum
            # and re-leases: one extra quantum billed beyond the lease.
            money_quanta=money_quanta + faults.crashes,
            dataflow_ops=len(df_assignments),
            operator_retries=faults.retries,
            operators_recovered=faults.recovered,
            retries_exhausted=faults.exhausted,
            containers_crashed=faults.crashes,
            stragglers=faults.stragglers,
        )

        builds_by_container: dict[int, list[Assignment]] = {}
        for a in sorted(interleaved.build_assignments, key=lambda a: a.start):
            builds_by_container.setdefault(a.container_id, []).append(a)
        for cid, build_list in builds_by_container.items():
            lease = leases.get(cid)
            if lease is None:
                # The dataflow never used this container (e.g. an empty
                # dataflow), so nothing leased it: its builds cannot run.
                result.builds_unstarted += len(build_list)
                continue
            self._run_builds(build_list, busy.get(cid, []), lease, result, pid, cid, offset)

        if obs.enabled:
            self._record_execution(result, makespan)
        return result

    def _dataflow_phase(
        self,
        dataflow: Dataflow,
        df_assignments: list[Assignment],
        faults: _OpFaultTally,
        pid: int,
        start_time: float,
    ) -> tuple[float, int, dict[int, tuple[float, float]], dict[int, list[_Interval]]]:
        """The dedicated lease policy's walk, in schedule-relative time.

        Each operator runs for its noisy and, under faults, retried
        runtime, accumulating fault counts into ``faults``. Returns
        ``(makespan, money_quanta, leases, busy)``, all relative to the
        execution start; the frozen oracle in
        tests/differential/oracle.py transcribes this walk.
        """

        def run(a: Assignment, start: float) -> float:
            duration = a.duration * self._noise()
            if self.injector.active:
                duration, tally = self._operator_elapsed(duration)
                faults.merge(tally)
            return start + duration

        makespan, busy = self._walk(dataflow, df_assignments, run, pid, 0.0, start_time, {})
        tq = self.pricing.quantum_seconds
        leases: dict[int, tuple[float, float]] = {}
        money_quanta = 0
        for cid, intervals in busy.items():
            first, last = lease_quanta(
                min(iv.start for iv in intervals), max(iv.end for iv in intervals), tq
            )
            leases[cid] = (first * tq, last * tq)
            money_quanta += last - first
        return makespan, money_quanta, leases, busy

    def _pooled_phase(
        self,
        schedule: Schedule,
        df_assignments: list[Assignment],
        faults: _OpFaultTally,
        pid: int,
        start_time: float,
        pool: ContainerPool,
    ) -> tuple[float, int, dict[int, tuple[float, float]], dict[int, list[_Interval]]]:
        """The pooled lease policy's walk, in absolute time.

        Returns what :meth:`_dataflow_phase` returns. A container's lease
        runs from ``start_time`` to the end of its paid pool lease, and
        the money is the quanta the pool newly paid.
        """
        dataflow = schedule.dataflow
        paid_before = pool.stats.quanta_paid
        sched_cids = sorted({a.container_id for a in schedule.assignments})
        mapping = dict(zip(sched_cids, pool.acquire(max(1, len(sched_cids)), start_time)))
        net_bw = self.container.net_bw_mb_s

        def run(a: Assignment, start: float) -> float:
            op = dataflow.operators[a.op_name]
            container = mapping[a.container_id]
            transfer = 0.0
            for data_file in op.inputs:
                if container.cache.access(data_file.name):
                    continue  # cache hit: transfer is 0 (Section 6.1)
                transfer += data_file.size_mb / net_bw
                container.cache.put(data_file.name, data_file.size_mb)
                container.cache.stats.bytes_read_remote += data_file.size_mb
            runtime = op.runtime * self._noise()
            if self.injector.active:
                duration, tally = self._operator_elapsed(runtime + transfer)
                faults.merge(tally)
                if tally.crashes:
                    # The crashed VM's local disk is unrecoverable; the
                    # respawned replacement starts with a cold cache.
                    pool.note_crash(container, tally.crashes)
                end = start + duration
            else:
                end = start + runtime + transfer
            pool.occupy(container, start, end)
            return end

        names = {cid: container.container_id for cid, container in mapping.items()}
        makespan, busy = self._walk(dataflow, df_assignments, run, pid, start_time, 0.0, names)
        leases = {cid: (start_time, container.lease_end) for cid, container in mapping.items()}
        return makespan, pool.stats.quanta_paid - paid_before, leases, busy

    def _walk(
        self,
        dataflow: Dataflow,
        df_assignments: list[Assignment],
        run: Callable[[Assignment, float], float],
        pid: int,
        origin: float,
        offset: float,
        names: Mapping[int, int],
    ) -> tuple[float, dict[int, list[_Interval]]]:
        """The operator walk both lease policies share.

        Operators run in the given (sorted) order. Each starts no earlier
        than ``origin``, once its container is free and its inputs have
        arrived (a cross-container edge pays the transfer); ``run(a,
        start)`` executes it and returns its end. Returns the makespan
        and each container's busy intervals. ``offset`` shifts the trace
        onto the absolute clock; ``names`` maps a schedule container to
        the id it is shown under, where the two differ.
        """
        obs = self.obs
        net_bw = self.container.net_bw_mb_s
        in_edges = dataflow.in_edges_map()
        avail: dict[int, float] = {}
        op_end: dict[str, float] = {}
        op_container: dict[str, int] = {}
        busy: dict[int, list[_Interval]] = {}
        for a in df_assignments:
            ready = origin
            for edge in in_edges.get(a.op_name, ()):
                src_end = op_end.get(edge.src)
                if src_end is None:
                    continue
                arrival = src_end
                if op_container.get(edge.src) != a.container_id:
                    arrival += edge.data_mb / net_bw
                ready = max(ready, arrival)
            start = max(ready, avail.get(a.container_id, origin))
            end = run(a, start)
            avail[a.container_id] = end
            op_end[a.op_name] = end
            op_container[a.op_name] = a.container_id
            busy.setdefault(a.container_id, []).append(_Interval(start, end))
            if obs.enabled:
                obs.tracer.span(
                    a.op_name, "operator", pid, a.container_id, offset + start, offset + end
                )
        if obs.enabled:
            for cid in busy:
                obs.tracer.name_thread(pid, cid, f"container {names.get(cid, cid)}")
        makespan = max((iv.end for ivs in busy.values() for iv in ivs), default=origin) - origin
        return makespan, busy

    def _record_execution(self, result: ExecutionResult, makespan: float) -> None:
        """Fold one execution's outcome into the metrics registry."""
        m = self.obs.metrics
        m.counter("sim/executions").inc()
        m.counter("sim/money_quanta").inc(result.money_quanta)
        m.counter("sim/builds_completed").inc(len(result.builds_completed))
        m.counter("sim/builds_killed").inc(result.builds_killed)
        m.counter("sim/builds_failed").inc(result.builds_failed)
        m.counter("sim/builds_unstarted").inc(result.builds_unstarted)
        m.histogram("sim/makespan_s").observe(makespan)

    def _run_builds(
        self,
        build_list: list[Assignment],
        busy: list[_Interval],
        lease: tuple[float, float],
        result: ExecutionResult,
        pid: int,
        tid: int,
        offset: float,
    ) -> None:
        """FIFO-fill builds into one container's actual idle gaps.

        A build that fits its gap completes. One cut off by a dataflow
        operator or the quantum expiry counts as killed; one that fails
        transiently mid-run counts as failed (never retried inline — its
        partition re-enters the candidate pool). Either way, with
        checkpointing enabled the work completed up to the last
        checkpoint boundary survives as a :class:`BuildCheckpoint`.
        Outcomes accumulate into ``result``. ``busy`` and ``lease`` are in
        the walk's frame; ``offset`` shifts them onto the absolute clock,
        and ``pid``/``tid`` locate the emitted trace slices.
        """
        injector = self.injector
        ckpt_interval = injector.profile.checkpoint_interval_s
        obs = self.obs
        gaps = quantum_gaps(busy, lease[0], lease[1], self.pricing.quantum_seconds)
        if obs.enabled:
            for gap_start, gap_end in gaps:
                obs.tracer.instant(
                    "idle_slot",
                    "slot",
                    pid,
                    tid,
                    offset + gap_start,
                    args={"duration_s": gap_end - gap_start},
                )
        gap_idx = 0
        cursor = gaps[0][0] if gaps else 0.0
        for a in build_list:
            parsed = parse_build_op_name(a.op_name)
            duration = a.duration * self._noise()
            # Move past the gaps earlier builds used up (up to rounding).
            while gap_idx < len(gaps) and le_tol(gaps[gap_idx][1] - cursor, 0.0):
                gap_idx += 1
                if gap_idx < len(gaps):
                    cursor = gaps[gap_idx][0]
            if gap_idx == len(gaps):
                result.builds_unstarted += 1
                continue
            gap_end = gaps[gap_idx][1]
            remaining = gap_end - cursor
            start = offset + cursor
            event: str | None
            detail: dict[str, float]
            if not le_tol(duration, remaining):
                # Cut off by the next dataflow operator or the quantum expiry.
                note("sim.preempt_kill")
                result.builds_killed += 1
                outcome, event, end, work = "killed", "build_kill", offset + gap_end, remaining
                detail = {"ran_s": remaining, "needed_s": duration}
                cursor = gap_end
            elif injector.active and injector.build_fails():
                spent = duration * injector.failure_point()
                result.builds_failed += 1
                outcome, event, end, work = "failed", "build_fail", start + spent, spent
                detail = {"spent_s": spent}
                cursor += spent
                logger.debug("build %s failed transiently", a.op_name)
            else:
                cursor += duration
                outcome, event, end, work = "completed", None, offset + cursor, duration
                detail = {}
                if parsed is not None:
                    result.builds_completed.append(CompletedBuild(parsed[0], parsed[1], end))
            if obs.enabled:
                obs.tracer.span(
                    a.op_name, "build", pid, tid, start, end, args={"outcome": outcome}
                )
                if event is not None:
                    obs.journal.emit(
                        event,
                        t=end,
                        op=a.op_name,
                        index=parsed[0] if parsed else None,
                        partition=parsed[1] if parsed else None,
                        **detail,
                    )
            if event is not None and parsed is not None and ckpt_interval > 0:
                durable = injector.checkpointed(work)
                if durable > 0:
                    result.checkpoints.append(BuildCheckpoint(parsed[0], parsed[1], durable))
