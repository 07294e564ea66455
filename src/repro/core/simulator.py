"""Execution simulator: runs an interleaved schedule against the clock.

Implements the execution semantics of Section 6.1: operators execute on
their assigned containers in schedule order; actual runtimes may deviate
from the estimates (estimation error); build-index operators (priority
-1) are *preempted* — stopped when a dataflow operator arrives at their
container or when the leased quantum expires — and a stopped build
leaves its index partition unbuilt (it is re-queued with a later
dataflow). Dataflow execution is therefore never delayed by builds.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.cloud.container import ContainerSpec, PAPER_CONTAINER
from repro.cloud.pricing import PricingModel
from repro.core.numeric import ceil_tol, floor_tol, gt_tol, is_zero, le_tol, lt_tol
from repro.faults.injector import FaultInjector, FaultKind
from repro.faults.retry import RetryPolicy
from repro.interleave.lp import InterleavedSchedule
from repro.interleave.slots import parse_build_op_name
from repro.explore.hooks import note
from repro.obs import NOOP_OBS, Observation
from repro.recovery.hooks import crash_point

if TYPE_CHECKING:
    from repro.dataflow.graph import Dataflow
    from repro.core.pool import ContainerPool
    from repro.scheduling.schedule import Assignment

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


@dataclass(frozen=True)
class _Interval:
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
        self.injector = injector
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

    @property
    def _faults_active(self) -> bool:
        return self.injector is not None and self.injector.active

    @property
    def _checkpoint_interval(self) -> float:
        if self.injector is None:
            return 0.0
        return self.injector.profile.checkpoint_interval_s

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
        assert injector is not None
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
        """Execute the schedule starting at ``start_time`` (absolute s)."""
        crash_point("simulator.pre_execute")
        note("sim.slot_fill")
        schedule = interleaved.schedule
        dataflow = schedule.dataflow
        obs = self.obs
        pid = self._exec_seq
        self._exec_seq += 1
        if obs.enabled:
            obs.tracer.name_process(pid, dataflow.name)

        # ---- Phase 1: dataflow operators with actual runtimes. --------
        df_assignments = sorted(
            schedule.dataflow_assignments(), key=lambda a: (a.start, a.end)
        )
        faults = _OpFaultTally()
        makespan, money_quanta, leases, busy = self._dataflow_phase(
            dataflow, df_assignments, faults, pid, start_time
        )

        # ---- Phase 2: build operators into the actual idle gaps. ------
        builds_by_container: dict[int, list[Assignment]] = {}
        for a in sorted(interleaved.build_assignments, key=lambda a: a.start):
            builds_by_container.setdefault(a.container_id, []).append(a)

        completed: list[CompletedBuild] = []
        checkpoints: list[BuildCheckpoint] = []
        killed = 0
        unstarted = 0
        failed = 0
        for cid, build_list in builds_by_container.items():
            lease = leases.get(cid)
            if lease is None:
                # The dataflow never actually used this container (can
                # happen for empty dataflows); builds cannot run.
                unstarted += len(build_list)
                continue
            done, ckpts, cut, lost, skipped = self._run_builds(
                build_list, busy.get(cid, []), lease, pid=pid, tid=cid, offset=start_time
            )
            completed.extend(
                CompletedBuild(
                    index_name=b.index_name,
                    partition_id=b.partition_id,
                    finished_at=start_time + b.finished_at,
                )
                for b in done
            )
            checkpoints.extend(ckpts)
            killed += cut
            failed += lost
            unstarted += skipped

        # Each container crash forfeits the remainder of its quantum and
        # re-leases: one extra quantum billed beyond the lease integral.
        money_quanta += faults.crashes

        if obs.enabled:
            self._record_execution(makespan, money_quanta, completed, killed, failed, unstarted)

        return ExecutionResult(
            dataflow_name=dataflow.name,
            start_time=start_time,
            finish_time=start_time + makespan,
            money_quanta=money_quanta,
            dataflow_ops=len(df_assignments),
            builds_completed=completed,
            builds_killed=killed,
            builds_unstarted=unstarted,
            builds_failed=failed,
            checkpoints=checkpoints,
            operator_retries=faults.retries,
            operators_recovered=faults.recovered,
            retries_exhausted=faults.exhausted,
            containers_crashed=faults.crashes,
            stragglers=faults.stragglers,
        )

    def _dataflow_phase(
        self,
        dataflow: Dataflow,
        df_assignments: list[Assignment],
        faults: _OpFaultTally,
        pid: int,
        start_time: float,
    ) -> tuple[float, int, dict[int, tuple[float, float]], dict[int, list[_Interval]]]:
        """Phase 1 of :meth:`execute`: dataflow operators, then leases.

        Walks ``df_assignments`` in the given (sorted) order with noisy
        and, under faults, retried runtimes, accumulating fault counts
        into ``faults``. Returns ``(makespan, money_quanta, leases,
        busy)``, all relative to the execution start; the frozen oracle
        in tests/differential/oracle.py transcribes this walk.
        """
        tq = self.pricing.quantum_seconds
        obs = self.obs
        avail: dict[int, float] = {}
        op_end: dict[str, float] = {}
        op_container: dict[str, int] = {}
        busy: dict[int, list[_Interval]] = {}
        for a in df_assignments:
            ready = 0.0
            for edge in dataflow.in_edges(a.op_name):
                src_end = op_end.get(edge.src)
                if src_end is None:
                    continue
                arrival = src_end
                if op_container.get(edge.src) != a.container_id:
                    arrival += edge.data_mb / self.container.net_bw_mb_s
                ready = max(ready, arrival)
            start = max(ready, avail.get(a.container_id, 0.0))
            duration = a.duration * self._noise()
            if self._faults_active:
                duration, tally = self._operator_elapsed(duration)
                faults.merge(tally)
            end = start + duration
            avail[a.container_id] = end
            op_end[a.op_name] = end
            op_container[a.op_name] = a.container_id
            busy.setdefault(a.container_id, []).append(_Interval(start, end))
            if obs.enabled:
                obs.tracer.name_thread(
                    pid, a.container_id, f"container {a.container_id}"
                )
                obs.tracer.span(
                    a.op_name,
                    "operator",
                    pid,
                    a.container_id,
                    start_time + start,
                    start_time + end,
                )

        if busy:
            makespan = max(iv.end for ivs in busy.values() for iv in ivs)
        else:
            makespan = 0.0

        # Leases: floor(first)..ceil(last) per container (relative).
        leases: dict[int, tuple[float, float]] = {}
        money_quanta = 0
        for cid, intervals in busy.items():
            first = min(iv.start for iv in intervals)
            last = max(iv.end for iv in intervals)
            lease_start = floor_tol(first / tq) * tq
            lease_end = max(lease_start + tq, ceil_tol(last / tq) * tq)
            leases[cid] = (lease_start, lease_end)
            money_quanta += int(round((lease_end - lease_start) / tq))
        return makespan, money_quanta, leases, busy

    # ------------------------------------------------------------------
    # Pooled, cache-aware execution (Section 6.1's container reuse)
    # ------------------------------------------------------------------
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
        crash_point("simulator.pre_execute")
        note("sim.slot_fill")
        schedule = interleaved.schedule
        dataflow = schedule.dataflow
        paid_before = pool.stats.quanta_paid
        obs = self.obs
        pid = self._exec_seq
        self._exec_seq += 1
        if obs.enabled:
            obs.tracer.name_process(pid, dataflow.name)

        sched_cids = sorted({a.container_id for a in schedule.assignments})
        pooled = pool.acquire(max(1, len(sched_cids)), start_time)
        mapping = {cid: pooled[i] for i, cid in enumerate(sched_cids)}

        df_assignments = sorted(
            schedule.dataflow_assignments(), key=lambda a: (a.start, a.end)
        )
        faults = _OpFaultTally()
        avail: dict[int, float] = {}
        op_end: dict[str, float] = {}
        op_container: dict[str, int] = {}
        busy: dict[int, list[_Interval]] = {}
        for a in df_assignments:
            op = dataflow.operators[a.op_name]
            container = mapping[a.container_id]
            ready = start_time
            for edge in dataflow.in_edges(a.op_name):
                src_end = op_end.get(edge.src)
                if src_end is None:
                    continue
                arrival = src_end
                if op_container.get(edge.src) != a.container_id:
                    arrival += edge.data_mb / self.container.net_bw_mb_s
                ready = max(ready, arrival)
            start = max(ready, avail.get(a.container_id, start_time))
            transfer = 0.0
            for data_file in op.inputs:
                if container.cache.access(data_file.name):
                    continue  # cache hit: transfer is 0 (Section 6.1)
                transfer += data_file.size_mb / self.container.net_bw_mb_s
                container.cache.put(data_file.name, data_file.size_mb)
                container.cache.stats.bytes_read_remote += data_file.size_mb
            runtime = op.runtime * self._noise()
            if self._faults_active:
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
            avail[a.container_id] = end
            op_end[a.op_name] = end
            op_container[a.op_name] = a.container_id
            busy.setdefault(a.container_id, []).append(_Interval(start, end))
            if obs.enabled:
                obs.tracer.name_thread(
                    pid, a.container_id, f"container {container.container_id}"
                )
                obs.tracer.span(
                    a.op_name, "operator", pid, a.container_id, start, end
                )

        if busy:
            makespan = max(iv.end for ivs in busy.values() for iv in ivs) - start_time
        else:
            makespan = 0.0

        # Builds run in the actual gaps up to each container's paid lease.
        completed: list[CompletedBuild] = []
        checkpoints: list[BuildCheckpoint] = []
        killed = 0
        unstarted = 0
        failed = 0
        builds_by_container: dict[int, list[Assignment]] = {}
        for a in sorted(interleaved.build_assignments, key=lambda a: a.start):
            builds_by_container.setdefault(a.container_id, []).append(a)
        for cid, build_list in builds_by_container.items():
            container = mapping.get(cid)
            if container is None:
                unstarted += len(build_list)
                continue
            intervals = busy.get(cid, [])
            lease = (start_time, container.lease_end)
            done, ckpts, cut, lost, skipped = self._run_builds(
                build_list, intervals, lease, pid=pid, tid=cid, offset=0.0
            )
            completed.extend(done)
            checkpoints.extend(ckpts)
            killed += cut
            failed += lost
            unstarted += skipped

        money = pool.stats.quanta_paid - paid_before + faults.crashes
        if obs.enabled:
            self._record_execution(makespan, money, completed, killed, failed, unstarted)
        return ExecutionResult(
            dataflow_name=dataflow.name,
            start_time=start_time,
            finish_time=start_time + makespan,
            money_quanta=money,
            dataflow_ops=len(df_assignments),
            builds_completed=completed,
            builds_killed=killed,
            builds_unstarted=unstarted,
            builds_failed=failed,
            checkpoints=checkpoints,
            operator_retries=faults.retries,
            operators_recovered=faults.recovered,
            retries_exhausted=faults.exhausted,
            containers_crashed=faults.crashes,
            stragglers=faults.stragglers,
        )

    def _record_execution(
        self,
        makespan: float,
        money_quanta: int,
        completed: list[CompletedBuild],
        killed: int,
        failed: int,
        unstarted: int,
    ) -> None:
        """Fold one execution's outcome into the metrics registry."""
        m = self.obs.metrics
        m.counter("sim/executions").inc()
        m.counter("sim/money_quanta").inc(money_quanta)
        m.counter("sim/builds_completed").inc(len(completed))
        m.counter("sim/builds_killed").inc(killed)
        m.counter("sim/builds_failed").inc(failed)
        m.counter("sim/builds_unstarted").inc(unstarted)
        m.histogram("sim/makespan_s").observe(makespan)

    def _run_builds(
        self,
        build_list: list[Assignment],
        intervals: list[_Interval],
        lease: tuple[float, float],
        *,
        pid: int = 0,
        tid: int = 0,
        offset: float = 0.0,
    ) -> tuple[list[CompletedBuild], list[BuildCheckpoint], int, int, int]:
        """FIFO-fill builds into one container's actual gaps.

        Completed builds carry finish times in the same frame (relative
        or absolute) as ``intervals``/``lease``. A build cut off by a
        dataflow operator or the quantum expiry counts as killed; one
        that fails transiently mid-run counts as failed (never retried
        inline — its partition re-enters the candidate pool). Either
        way, with checkpointing enabled the work completed up to the
        last checkpoint boundary survives as a :class:`BuildCheckpoint`.

        ``pid``/``tid``/``offset`` locate the emitted trace slices:
        ``offset`` shifts this container's (possibly schedule-relative)
        times onto the absolute simulation clock.
        """
        completed: list[CompletedBuild] = []
        checkpoints: list[BuildCheckpoint] = []
        killed = 0
        unstarted = 0
        failed = 0
        injector = self.injector
        faults_active = self._faults_active and injector is not None
        ckpt_interval = self._checkpoint_interval if injector is not None else 0.0
        obs = self.obs
        gaps = self._actual_gaps(intervals, lease)
        if obs.enabled:
            for gap in gaps:
                obs.tracer.instant(
                    "idle_slot",
                    "slot",
                    pid,
                    tid,
                    offset + gap.start,
                    args={"duration_s": gap.end - gap.start},
                )
        gap_idx = 0
        cursor = gaps[0].start if gaps else None
        for a in build_list:
            parsed = parse_build_op_name(a.op_name)
            duration = a.duration * self._noise()
            placed = False
            while gap_idx < len(gaps):
                gap = gaps[gap_idx]
                if cursor is None or cursor < gap.start:
                    cursor = gap.start
                remaining = gap.end - cursor
                if le_tol(remaining, 0.0):
                    gap_idx += 1
                    cursor = None
                    continue
                if le_tol(duration, remaining):
                    if faults_active and injector is not None and injector.build_fails():
                        spent = duration * injector.failure_point()
                        failed += 1
                        if obs.enabled:
                            obs.tracer.span(
                                a.op_name,
                                "build",
                                pid,
                                tid,
                                offset + cursor,
                                offset + cursor + spent,
                                args={"outcome": "failed"},
                            )
                            obs.journal.emit(
                                "build_fail",
                                t=offset + cursor + spent,
                                op=a.op_name,
                                index=parsed[0] if parsed else None,
                                partition=parsed[1] if parsed else None,
                                spent_s=spent,
                            )
                        cursor = cursor + spent
                        placed = True
                        if parsed is not None and ckpt_interval > 0 and injector is not None:
                            durable = injector.checkpointed(spent)
                            if durable > 0:
                                checkpoints.append(
                                    BuildCheckpoint(parsed[0], parsed[1], durable)
                                )
                        logger.debug("build %s failed transiently", a.op_name)
                        break
                    finish = cursor + duration
                    if parsed is not None:
                        completed.append(
                            CompletedBuild(
                                index_name=parsed[0],
                                partition_id=parsed[1],
                                finished_at=finish,
                            )
                        )
                    if obs.enabled:
                        obs.tracer.span(
                            a.op_name,
                            "build",
                            pid,
                            tid,
                            offset + cursor,
                            offset + finish,
                            args={"outcome": "completed"},
                        )
                    cursor = finish
                    placed = True
                else:
                    # Started but cut off by the next dataflow operator
                    # or the quantum expiry.
                    note("sim.preempt_kill")
                    killed += 1
                    if obs.enabled:
                        obs.tracer.span(
                            a.op_name,
                            "build",
                            pid,
                            tid,
                            offset + cursor,
                            offset + gap.end,
                            args={"outcome": "killed"},
                        )
                        obs.journal.emit(
                            "build_kill",
                            t=offset + gap.end,
                            op=a.op_name,
                            index=parsed[0] if parsed else None,
                            partition=parsed[1] if parsed else None,
                            ran_s=remaining,
                            needed_s=duration,
                        )
                    if parsed is not None and ckpt_interval > 0 and injector is not None:
                        durable = injector.checkpointed(remaining)
                        if durable > 0:
                            checkpoints.append(
                                BuildCheckpoint(parsed[0], parsed[1], durable)
                            )
                    gap_idx += 1
                    cursor = None
                    placed = True
                break
            if not placed:
                unstarted += 1
        return completed, checkpoints, killed, failed, unstarted

    def _actual_gaps(self, intervals: list[_Interval], lease: tuple[float, float]) -> list[_Interval]:
        """Idle periods of one container, split at quantum boundaries.

        Build operators are stopped when a dataflow operator arrives *or
        the current time quantum expires* (Section 6.1), so a build can
        never run across a quantum boundary: each idle period is cut at
        the boundaries of the billing grid. The LP interleaver's slots
        respect the same boundaries, so its builds fit; blindly placed
        builds (the random baseline) straddle boundaries and get killed.
        """
        tq = self.pricing.quantum_seconds
        lease_start, lease_end = lease
        raw: list[tuple[float, float]] = []
        cursor = lease_start
        for iv in sorted(intervals, key=lambda iv: iv.start):
            if gt_tol(iv.start, cursor):
                raw.append((cursor, iv.start))
            cursor = max(cursor, iv.end)
        if lt_tol(cursor, lease_end):
            raw.append((cursor, lease_end))
        gaps: list[_Interval] = []
        for g_start, g_end in raw:
            piece = g_start
            while lt_tol(piece, g_end):
                boundary = floor_tol(piece / tq) * tq + tq
                gaps.append(_Interval(piece, min(boundary, g_end)))
                piece = min(boundary, g_end)
        return gaps
