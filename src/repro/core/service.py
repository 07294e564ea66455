"""The QaaS service: dataflows in, schedules + index management out.

Dataflows are issued sequentially (the user observes each result before
the next arrives, Section 3); the service executes them in issue order,
running the index management strategy at each arrival:

* ``NO_INDEX``        — never builds an index (baseline).
* ``RANDOM``          — builds a random subset of the dataflow's
                        potential indexes, assigned at random to idle
                        slots, and never deletes anything (baseline).
* ``GAIN_NO_DELETE``  — Algorithm 1 without the deletion step.
* ``GAIN``            — the full Algorithm 1 auto-tuning.
"""

from __future__ import annotations

import heapq
import logging
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Iterator

import numpy as np

from repro.cloud.storage import CloudStorage
from repro.core.config import ExperimentConfig
from repro.core.metrics import DataflowOutcome, IndexSnapshot, ServiceMetrics
from repro.core.simulator import ExecutionSimulator
from repro.dataflow.client import ArrivalEvent, Workload
from repro.dataflow.graph import Dataflow
from repro.explore.hooks import ALL_RESOURCES, Action, Epoch, declared_effects
from repro.faults.injector import FaultInjector, TransientStorageError
from repro.faults.retry import RetryPolicy
from repro.interleave.knapsack import reset_knapsack_cache
from repro.interleave.lp import InterleavedSchedule, update_runtimes_for_indexes
from repro.interleave.slots import BuildCandidate
from repro.obs import (
    IndexLedger,
    MetricsRegistry,
    NOOP_OBS,
    Observation,
    RegressionWatchdog,
)
from repro.recovery.hooks import NOOP_RECOVERY, RecoveryLog, crash_point
from repro.scheduling.schedule import Assignment, Schedule
from repro.scheduling.skyline import SkylineScheduler
from repro.tuning.gain import GainModel, IndexGain
from repro.tuning.history import DataflowHistory
from repro.tuning.tuner import OnlineIndexTuner, TunerDecision

logger = logging.getLogger(__name__)

#: Declared effect footprints of the interleavable actions this module
#: registers, on the ``<resource>:<r|w>`` lattice shared with the EFF01
#: static checker (``repro-lint --flow``), which proves each entry a
#: sound superset of the generator's inferred transitive effects. Keys
#: are the ``kind=`` strings of the Action factories below; values must
#: stay literal so the checker can read them without importing us.
ACTION_EFFECTS: dict[str, frozenset[str]] = {
    # storage put + catalog mark; gain-model invalidation, WAL record,
    # journal emit; the fault injector's rng draw on the put.
    "build": declared_effects(
        "billing:w", "catalog:r", "catalog:w", "fs:w",
        "metrics:r", "metrics:w", "rng:w", "storage:w",
    ),
    # checkpoint persistence into the catalog + WAL record.
    "kill": declared_effects("catalog:r", "catalog:w", "fs:w", "metrics:w"),
    # gain-window append + the catalog/storage snapshot it reads.
    "history": declared_effects(
        "catalog:r", "fs:w", "history:w", "metrics:w", "storage:r",
    ),
    # storage delete (billed) + catalog drop; injector rng on the delete.
    "delete": declared_effects(
        "billing:w", "catalog:r", "catalog:w", "fs:w",
        "metrics:r", "metrics:w", "rng:w", "storage:r", "storage:w",
    ),
    # the watchdog's rollback of a regressed index: the ordinary delete
    # sequence plus the ledger close-out and watchdog bookkeeping (both
    # metrics/journal writes, already in the delete footprint).
    "watchdog_delete": declared_effects(
        "billing:w", "catalog:r", "catalog:w", "fs:w",
        "metrics:r", "metrics:w", "rng:w", "storage:r", "storage:w",
    ),
    # pooled execution: container pool churn, billing quanta reads,
    # simulator noise rng, metrics emission.
    "slotfill": declared_effects(
        "billing:r", "metrics:r", "metrics:w", "pool:r", "pool:w", "rng:w",
    ),
}


class Strategy(Enum):
    """Index-management strategies compared in Section 6.5."""

    NO_INDEX = "no_index"
    RANDOM = "random"
    GAIN_NO_DELETE = "gain_no_delete"
    GAIN = "gain"


@dataclass
class RunState:
    """The loop state of one service run, between iterations.

    Everything :meth:`QaaSService.step` needs lives here (not in
    closures) so crash recovery can pickle the run mid-stream and a
    restored (service, state) pair continues exactly where the original
    stopped. ``generated`` caches the workload's lazily generated
    dataflows: generation draws from the workload RNG in *admission*
    order (including queued-lookahead peeks), so only the cache — never
    the RNG position alone — makes restoration sound.
    """

    metrics: ServiceMetrics
    ordered: list[ArrivalEvent]
    generated: list[Dataflow | None]
    slots: int
    #: Min-heap of finish times of running dataflows.
    running: list[float] = field(default_factory=list)
    #: Results whose effects (built partitions, history) have not been
    #: applied yet — applied once simulated time passes their finish.
    pending: list[tuple[float, object, TunerDecision, str]] = field(
        default_factory=list
    )
    #: Index of the next arrival to admit.
    i: int = 0
    #: Set when the horizon cut the run short of the event stream.
    exhausted: bool = False


#: Degradation ladder of the guard's decide_mode: full tuning, schedule
#: with existing indexes but skip the tuner, or run the raw dataflow.
MODE_FULL = "full"
MODE_INDEXED = "indexed"
MODE_UNINDEXED = "unindexed"


class ServiceGuard:
    """Per-service protective hooks; the default allows everything.

    The multi-tenant front end (:mod:`repro.tenancy`) subclasses this to
    wire circuit breakers and per-dataflow deadline budgets into the
    service loop without the core importing the tenancy layer. The loop
    calls every hook unconditionally: this base class is the null
    object, and its hooks neither draw randomness nor touch state, so a
    run without a tenant guard is byte-identical to one without hooks.
    """

    def decide_mode(self, issued_at: float, exec_start: float) -> str:
        """Pick the decision mode for a dataflow admitted at
        ``issued_at`` that will start executing at ``exec_start``."""
        return MODE_FULL

    def allow_build_put(self, index_name: str, now: float) -> bool:
        """Whether a completed build may be persisted (build breaker)."""
        return True

    def record_build_put(self, ok: bool, now: float) -> None:
        """Outcome of a storage put for a completed build."""

    def record_build_failures(self, count: int, now: float) -> None:
        """``count`` in-simulator build-operator failures at ``now``."""

    def allow_storage_delete(self, path: str, now: float) -> bool:
        """Whether a storage delete may be attempted (storage breaker)."""
        return True

    def record_storage_delete(self, ok: bool, now: float) -> None:
        """Outcome of an attempted storage delete."""


class QaaSService:
    """One service instance bound to a workload, config and strategy."""

    def __init__(
        self,
        workload: Workload,
        config: ExperimentConfig,
        strategy: Strategy,
        interleaver: str = "lp",
        obs: Observation | None = None,
        recovery: RecoveryLog | None = None,
        guard: ServiceGuard | None = None,
    ) -> None:
        self.workload = workload
        self.config = config
        self.strategy = strategy
        # The loop's sinks are null objects when off, and it calls them
        # unconditionally. The no-ops draw no randomness, read no clock
        # and change no state, so a run with the default guard (allow
        # everything), NOOP_OBS or NOOP_RECOVERY is byte-identical to
        # one without the sink wired in at all. Observability and the
        # recovery log are also write-only: nothing branches on them.
        self.guard = guard if guard is not None else ServiceGuard()
        self.catalog = workload.catalog
        self.pricing = config.pricing
        self.obs = obs if obs is not None else NOOP_OBS
        self.recovery = recovery if recovery is not None else NOOP_RECOVERY
        # Fault injection and retry draw from their own seeded streams
        # (seed+3 / seed+4): a zero-rate profile leaves the workload,
        # service and simulator streams — and hence every metric —
        # byte-identical to the fault-free configuration.
        self.injector = FaultInjector(
            config.fault_profile(), rng=np.random.default_rng(config.seed + 3)
        )
        self.retry_policy = RetryPolicy(
            max_attempts=config.retry_max_attempts,
            base_delay_s=config.retry_base_delay_s,
            multiplier=config.retry_multiplier,
            max_delay_s=config.retry_max_delay_s,
            jitter=config.retry_jitter,
            rng=np.random.default_rng(config.seed + 4),
        )
        self.storage = CloudStorage(self.pricing, injector=self.injector)
        self._orphan_paths: list[str] = []
        self.rng = np.random.default_rng(config.seed + 1)
        self.scheduler = SkylineScheduler(
            self.pricing,
            max_containers=config.scheduler_containers,
            max_skyline=config.max_skyline,
            obs=self.obs,
        )
        self.simulator = ExecutionSimulator(
            self.pricing,
            runtime_error=config.runtime_error,
            rng=np.random.default_rng(config.seed + 2),
            injector=self.injector,
            retry=self.retry_policy,
            obs=self.obs,
        )
        self._next_update = (
            config.update_interval_s if config.update_interval_s > 0 else float("inf")
        )
        self.pool = None
        if config.enable_pooling:
            from repro.core.pool import ContainerPool

            self.pool = ContainerPool(
                self.pricing, max_containers=config.max_containers, obs=self.obs
            )
        gain_model = GainModel(
            self.pricing, self.catalog.cost_model, config.gain_parameters()
        )
        self.tuner = OnlineIndexTuner(
            catalog=self.catalog,
            gain_model=gain_model,
            history=DataflowHistory(self.pricing, max_records=config.history_max_records),
            scheduler=self.scheduler,
            interleaver=interleaver,
            max_candidates=config.max_candidates,
            obs=self.obs,
        )
        # ROI accounting and the regression watchdog are opt-in and come
        # together: the watchdog owns the ledger it audits. With both
        # flags off neither exists and no feed site runs, so default runs
        # stay byte-identical. The ledger writes through the observation's
        # journal/metrics (no-ops when obs is disabled — rollback still
        # works, it just leaves no events behind).
        self._watchdog: RegressionWatchdog | None = None
        if config.roi_ledger or config.watchdog_rollback:
            self._watchdog = RegressionWatchdog(
                ledger=IndexLedger(
                    journal=self.obs.journal,
                    metrics=self.obs.metrics,
                    quantum_seconds=self.pricing.quantum_seconds,
                    quantum_price=self.pricing.quantum_price,
                    storage_price_mb_quantum=self.pricing.storage_price_mb_quantum,
                ),
                journal=self.obs.journal,
                metrics=self.obs.metrics,
                quantum_seconds=self.pricing.quantum_seconds,
                window_quanta=config.watchdog_window_quanta,
                hysteresis=config.watchdog_hysteresis,
            )

    # ------------------------------------------------------------------
    # Strategy dispatch
    # ------------------------------------------------------------------
    def _decide(
        self, dataflow: Dataflow, now: float, queued: list[Dataflow] | None = None
    ) -> TunerDecision:
        if self.strategy is Strategy.NO_INDEX:
            return self._decide_degraded(dataflow, MODE_UNINDEXED)
        if self.strategy is Strategy.RANDOM:
            return self._decide_random(dataflow)
        decision = self.tuner.on_dataflow(dataflow, now, queued=queued)
        # The decision waits in RunState.pending until it settles: drop
        # the skyline and ranking it no longer needs so snapshots of the
        # pending queue stay small.
        return replace(
            decision,
            skyline=[],
            ranked=[],
            to_delete=decision.to_delete if self.strategy is Strategy.GAIN else [],
        )

    def _decide_degraded(self, dataflow: Dataflow, mode: str) -> TunerDecision:
        """Graceful degradation: schedule without consulting the tuner.

        ``indexed`` still folds already-built indexes into the operator
        runtimes (the cheap part of a decision) but schedules no builds
        and no deletes; ``unindexed`` runs the raw dataflow. Both leave
        the tuner's history/gain state untouched except for the ordinary
        execution record, so tuning resumes seamlessly once the deadline
        pressure or breaker trip clears.
        """
        if mode == MODE_INDEXED:
            self._fold_built_indexes(dataflow)
        return TunerDecision(
            chosen=InterleavedSchedule(schedule=self._fastest(dataflow))
        )

    def _decide_random(self, dataflow: Dataflow) -> TunerDecision:
        """Random baseline: random indexes, random slot assignment.

        The available indexes still speed up operators (the baseline
        differs only in *which* indexes get built and *where*).
        """
        self._fold_built_indexes(dataflow)
        fastest = self._fastest(dataflow)
        candidates = self._random_candidates(dataflow)
        assignments = self._random_pack(fastest, candidates)
        return TunerDecision(
            chosen=InterleavedSchedule(
                schedule=fastest,
                build_assignments=assignments,
                scheduled_builds=candidates[: len(assignments)],
            )
        )

    def _fastest(self, dataflow: Dataflow) -> Schedule:
        """The minimum-makespan point of the dataflow's skyline."""
        skyline = self.scheduler.schedule(dataflow)
        return min(skyline, key=lambda s: s.makespan_seconds())

    def _fold_built_indexes(self, dataflow: Dataflow) -> None:
        """Speed the dataflow's operators up by the indexes built so far."""
        built = self.catalog.built_indexes()
        available = {idx.name for idx in built}
        if available:
            fractions = {idx.name: idx.built_fraction() for idx in built}
            sizes = {
                idx.name: self.catalog.cost_model.index_size_mb(idx.table, idx.spec)
                for idx in built
            }
            update_runtimes_for_indexes(dataflow, available, fractions, sizes)

    def _random_candidates(self, dataflow: Dataflow) -> list[BuildCandidate]:
        """Random partitions of random indexes from the full potential set.

        The paper's random baseline "randomly selects indexes from the
        potential set and randomly assigns them to containers": it
        neither targets the workload nor concentrates on completing any
        one index, so its build effort is spread thin — index fractions
        stay low and barely accelerate anything, while the storage cost
        accrues all the same.
        """
        pool: list[tuple[str, int]] = []
        for name in sorted(self.catalog.indexes):
            index = self.catalog.indexes[name]
            for pid in index.unbuilt_partition_ids():
                pool.append((name, pid))
        if not pool:
            return []
        sample = min(len(pool), self.config.random_builds_per_dataflow)
        chosen = self.rng.choice(len(pool), size=sample, replace=False)
        candidates: list[BuildCandidate] = []
        for i in chosen:
            name, pid = pool[int(i)]
            index = self.catalog.indexes[name]
            table, spec = index.table, index.spec
            model = self.catalog.cost_model.partition_model(
                table, spec, table.partition(pid)
            )
            remaining_s = model.total_build_seconds - index.checkpoint_seconds(pid)
            candidates.append(
                BuildCandidate(
                    index_name=name,
                    partition_id=pid,
                    duration_s=max(remaining_s, 1e-6),
                    gain=0.0,
                )
            )
        return candidates

    def _random_pack(
        self, schedule: Schedule, candidates: list[BuildCandidate]
    ) -> list[Assignment]:
        """Assign candidates to random containers at random offsets.

        The random baseline "randomly assigns them to containers to be
        built" with no fit reasoning: each build lands at a random point
        of a random idle slot. Builds that spill past the slot (or pile
        up on each other) are started and preempted at execution, which
        is what drives the random baseline's higher killed-operator
        percentage (Table 7).
        """
        containers = schedule.containers_used()
        if not containers or not candidates:
            return []
        assignments: list[Assignment] = []
        order = list(candidates)
        self.rng.shuffle(order)  # type: ignore[arg-type]
        cursor: dict[int, float] = {}
        for cand in order:
            cid = containers[int(self.rng.integers(0, len(containers)))]
            start = cursor.get(cid, 0.0)
            assignments.append(
                Assignment(cand.op_name, cid, start, start + cand.duration_s)
            )
            cursor[cid] = start + cand.duration_s
        return assignments

    # ------------------------------------------------------------------
    # State updates
    # ------------------------------------------------------------------
    def _safe_delete(self, path: str, time: float, metrics: ServiceMetrics) -> bool:
        """Delete a storage object, absorbing transient failures.

        A dropped delete leaves the object live (and billing); the path
        is queued and retried at later settle points. An open storage
        breaker (guarded runs only) skips the attempt entirely — the
        path joins the same orphan queue and is swept once the breaker
        closes again.
        """
        if not self.guard.allow_storage_delete(path, time):
            self._orphan_paths.append(path)
            logger.info("storage breaker open: delete of %s deferred", path)
            return False
        try:
            self.storage.delete(path, time)
            self.guard.record_storage_delete(True, time)
            return True
        except TransientStorageError:
            metrics.storage_delete_failures += 1
            self._orphan_paths.append(path)
            self.guard.record_storage_delete(False, time)
            logger.info("delete of %s failed transiently; will retry", path)
            return False

    def _retry_orphan_deletes(self, now: float, metrics: ServiceMetrics) -> None:
        """Retry storage deletes that failed transiently earlier."""
        if not self._orphan_paths:
            return
        pending = self._orphan_paths
        self._orphan_paths = []
        now = max(now, self.storage.accounted_until)
        for path in pending:
            if not self.storage.exists(path):
                continue
            self._safe_delete(path, now, metrics)

    def _apply_data_updates(self, now: float, metrics: ServiceMetrics) -> int:
        """Simulate the periodic batch updates of Section 3.

        Every ``update_interval_s`` one random table receives a new
        version of ``update_partitions`` partitions; index partitions
        built on the old versions are invalidated ("Indexes built on
        table partitions that are updated are deleted and marked as not
        built"), and their storage is reclaimed. Returns the number of
        invalidated index partitions.
        """
        interval = self.config.update_interval_s
        if interval <= 0:
            return 0
        invalidated = 0
        while self._next_update <= now:
            update_time = self._next_update
            self._next_update += interval
            names = sorted(self.catalog.tables)
            table = self.catalog.tables[names[int(self.rng.integers(0, len(names)))]]
            count = min(self.config.update_partitions, len(table.partitions))
            picked = self.rng.choice(len(table.partitions), size=count, replace=False)
            pids = [table.partitions[int(i)].partition_id for i in picked]
            for pid in pids:
                table.update_partition(pid)
            for index in self.catalog.indexes.values():
                if index.spec.table_name != table.name:
                    continue
                for pid in pids:
                    if index.partitions[pid].built:
                        index.invalidate_partition(pid)
                        self.recovery.record(
                            "index_partition_invalidated",
                            update_time,
                            index=index.name,
                            partition=pid,
                        )
                        # Stale cost terms die with the build version;
                        # the explicit call keeps the memo bounded and
                        # the invalidation observable.
                        self.tuner.gain_model.invalidate_index(index.name)
                        path = index.spec.path(pid)
                        if self.storage.exists(path):
                            self._safe_delete(
                                path,
                                max(update_time, self.storage.accounted_until),
                                metrics,
                            )
                        invalidated += 1
        return invalidated

    def _iter_apply_build(
        self,
        done,
        metrics: ServiceMetrics,
        gains: dict[str, IndexGain] | None = None,
    ) -> Iterator[str]:
        """One completed build as an interleavable action.

        Micro-step 1 charges storage (the put); micro-step 2 inserts the
        partition into the catalog. The yield between them is the torn
        window a racing delete can land in — the canonical
        (controller-free) order runs both back to back, exactly the old
        inline sequence. A transiently failed storage put degrades
        gracefully: the partition stays unbuilt and unbilled, and
        re-enters the tuner's candidate pool at the next decision.
        """
        index = self.catalog.indexes.get(done.index_name)
        if index is None or index.partitions[done.partition_id].built:
            return
        size_mb = self.catalog.cost_model.partition_size_mb(
            index.table, index.spec, index.table.partition(done.partition_id)
        )
        # Builds on different containers complete concurrently with
        # (and occasionally just past) the dataflow; never rewind the
        # storage billing clock.
        at = max(done.finished_at, self.storage.accounted_until)
        if not self.guard.allow_build_put(done.index_name, at):
            metrics.degraded_builds += 1
            metrics.breaker_skipped_builds += 1
            logger.info(
                "build breaker open: dropping completed build %s partition %d",
                done.index_name, done.partition_id,
            )
            return
        path = index.spec.path(done.partition_id)
        try:
            self.storage.put(path, size_mb, at)
        except TransientStorageError:
            metrics.storage_put_failures += 1
            metrics.degraded_builds += 1
            self.guard.record_build_put(False, at)
            logger.info(
                "put of %s partition %d lost; partition stays unbuilt",
                done.index_name, done.partition_id,
            )
            return
        if path in self._orphan_paths:
            # The put replaced the version a failed delete left behind
            # and ended its billing; retrying that delete would now
            # remove the rebuilt partition.
            self._orphan_paths = [p for p in self._orphan_paths if p != path]
        self.guard.record_build_put(True, at)
        yield "build.catalog_mark"
        resumed = index.partitions[done.partition_id].checkpoint_seconds > 0
        if resumed:
            metrics.checkpoint_resumes += 1
        was_built = index.any_built
        index.mark_built(done.partition_id, done.finished_at)
        self.tuner.gain_model.invalidate_index(done.index_name)
        if not was_built:
            metrics.indexes_created += 1
        # One fact, two sinks: the WAL record and the journal event share
        # their fields; the journal adds the decision's gain breakdown.
        fact: dict[str, object] = {
            "index": done.index_name,
            "partition": done.partition_id,
            "size_mb": size_mb,
            "resumed": resumed,
        }
        self.recovery.record("index_build_completed", done.finished_at, **fact)
        gain = (gains or {}).get(done.index_name)
        self.obs.journal.emit(
            "index_build",
            t=done.finished_at,
            breakdown=gain.breakdown() if gain is not None else None,
            **fact,
        )
        self.obs.metrics.counter("service/partitions_built").inc()
        if self._watchdog is not None:
            build_s = self.catalog.cost_model.partition_model(
                index.table, index.spec, index.table.partition(done.partition_id)
            ).total_build_seconds
            self._watchdog.ledger.on_build(
                done.index_name, done.partition_id, at, size_mb, build_s
            )
            self._watchdog.on_build(done.index_name, at)

    def _iter_apply_checkpoints(self, result, metrics: ServiceMetrics) -> Iterator[str]:
        """Persist partial-build progress of preemption-killed builds,
        one checkpoint per micro-step."""
        for k, ckpt in enumerate(result.checkpoints):
            if k:
                yield "kill.checkpoint"
            index = self.catalog.indexes.get(ckpt.index_name)
            if index is None or index.partitions[ckpt.partition_id].built:
                continue
            index.record_checkpoint(ckpt.partition_id, ckpt.seconds)
            metrics.checkpoints_recorded += 1
            self.recovery.record(
                "index_build_checkpoint",
                result.finish_time,
                index=ckpt.index_name,
                partition=ckpt.partition_id,
                seconds=ckpt.seconds,
                total=index.checkpoint_seconds(ckpt.partition_id),
            )
            logger.debug(
                "checkpoint: %s partition %d +%.1fs (total %.1fs)",
                ckpt.index_name, ckpt.partition_id, ckpt.seconds,
                index.checkpoint_seconds(ckpt.partition_id),
            )

    def _iter_record_history(self, result, decision, metrics: ServiceMetrics) -> Iterator[str]:
        """History append + metrics snapshot for one settled execution
        (a single atomic micro-step)."""
        if self.strategy in (Strategy.GAIN, Strategy.GAIN_NO_DELETE):
            head_before = self.tuner.history.head_position
            self.tuner.record_execution(
                result.dataflow_name,
                result.finish_time,
                decision.dataflow_time_gains,
                decision.dataflow_money_gains,
            )
            history = self.tuner.history
            self.recovery.record(
                "history_append",
                result.finish_time,
                dataflow=result.dataflow_name,
                end=history.end_position,
                head=history.head_position,
            )
            if history.head_position != head_before:
                # The bounded window evicted its oldest records: the
                # "history slide" the gain model feels.
                self.recovery.record(
                    "history_slide",
                    result.finish_time,
                    head=history.head_position,
                    evicted=history.head_position - head_before,
                )
        metrics.snapshots.append(self._snapshot(result.finish_time))
        return
        yield "history.append"  # pragma: no cover - marks this a generator

    def _iter_apply_delete(
        self,
        name: str,
        now: float,
        metrics: ServiceMetrics,
        gains: dict[str, IndexGain] | None = None,
    ) -> Iterator[str]:
        """Delete one flagged index as an interleavable action: drop its
        partition objects one micro-step at a time, then (last step)
        remove the partitions from the catalog."""
        index = self.catalog.indexes.get(name)
        if index is None or not index.any_built:
            return
        now = max(now, self.storage.accounted_until)
        pids = index.built_partition_ids()
        for k, pid in enumerate(pids):
            path = index.spec.path(pid)
            if self.storage.exists(path):
                self._safe_delete(path, now, metrics)
            yield "delete.storage_object" if k + 1 < len(pids) else "delete.catalog_drop"
        index.drop_all()
        self.tuner.gain_model.invalidate_index(name)
        metrics.indexes_deleted += 1
        fact: dict[str, object] = {"index": name, "partitions_dropped": len(pids)}
        self.recovery.record("index_deleted", now, **fact)
        gain = (gains or {}).get(name)
        self.obs.journal.emit(
            "index_delete",
            t=now,
            breakdown=gain.breakdown() if gain is not None else None,
            **fact,
        )
        self.obs.metrics.counter("service/indexes_deleted").inc()
        if self._watchdog is not None:
            self._watchdog.ledger.on_delete(name, now)
            self._watchdog.on_delete(name, now)

    def _iter_watchdog_delete(
        self, name: str, now: float, metrics: ServiceMetrics
    ) -> Iterator[str]:
        """Roll back one regression-flagged index.

        Reuses the ordinary delete sequence (so recovery records,
        journal events and metrics stay uniform), then books the
        rollback with the watchdog that flagged it.
        """
        yield from self._iter_apply_delete(name, now, metrics, gains=None)
        assert self._watchdog is not None  # only a watchdog flags rollbacks
        self._watchdog.on_rolled_back(name)

    def _iter_execute(self, decision, exec_start: float, out: list) -> Iterator[str]:
        """Slot-fill and execute the decision (one atomic micro-step);
        the result lands in ``out`` for the caller's bookkeeping."""
        if self.pool is not None:
            out.append(
                self.simulator.execute_pooled(
                    decision.chosen, start_time=exec_start, pool=self.pool
                )
            )
        else:
            out.append(
                self.simulator.execute(decision.chosen, start_time=exec_start)
            )
        return
        yield "slotfill.execute"  # pragma: no cover - marks this a generator

    # ------------------------------------------------------------------
    # Action factories (offered through an Epoch by step/finish_run)
    # ------------------------------------------------------------------
    def _build_action(self, done, metrics: ServiceMetrics, gains) -> Action:
        return Action(
            key=f"build:{done.index_name}:{done.partition_id}",
            kind="build",
            gen=self._iter_apply_build(done, metrics, gains=gains),
            resources=frozenset((f"idx:{done.index_name}",)),
            entry="build.storage_put",
            effects=ACTION_EFFECTS["build"],
            stamp=done.finished_at,
        )

    def _kill_action(self, result, metrics: ServiceMetrics) -> Action:
        return Action(
            key=f"kill:{result.dataflow_name}",
            kind="kill",
            gen=self._iter_apply_checkpoints(result, metrics),
            resources=frozenset(f"idx:{c.index_name}" for c in result.checkpoints),
            entry="kill.checkpoint",
            effects=ACTION_EFFECTS["kill"],
        )

    def _history_action(self, result, decision, metrics: ServiceMetrics) -> Action:
        # The snapshot inside reads catalog + storage, so a history
        # action commutes with nothing (ALL_RESOURCES).
        return Action(
            key=f"history:{result.dataflow_name}",
            kind="history",
            gen=self._iter_record_history(result, decision, metrics),
            resources=frozenset((ALL_RESOURCES,)),
            entry="history.append",
            effects=ACTION_EFFECTS["history"],
        )

    def _delete_action(
        self, name: str, now: float, metrics: ServiceMetrics, gains
    ) -> Action:
        return Action(
            key=f"delete:{name}",
            kind="delete",
            gen=self._iter_apply_delete(name, now, metrics, gains=gains),
            resources=frozenset((f"idx:{name}",)),
            entry="delete.storage_object",
            effects=ACTION_EFFECTS["delete"],
            stamp=now,
        )

    def _watchdog_delete_action(
        self, name: str, now: float, metrics: ServiceMetrics
    ) -> Action:
        # The rollback consults ledger balances that the settle-time
        # probe feeds update, so it commutes with nothing (ALL_RESOURCES)
        # — which also keeps it out of the EFF02 pairwise obligations.
        return Action(
            key=f"watchdog_delete:{name}",
            kind="watchdog_delete",
            gen=self._iter_watchdog_delete(name, now, metrics),
            resources=frozenset((ALL_RESOURCES,)),
            entry="delete.storage_object",
            effects=ACTION_EFFECTS["watchdog_delete"],
            stamp=now,
        )

    def _execute_action(self, decision, exec_start: float, out: list, name: str) -> Action:
        return Action(
            key=f"slotfill:{name}",
            kind="slotfill",
            gen=self._iter_execute(decision, exec_start, out),
            resources=frozenset((ALL_RESOURCES,)),
            entry="slotfill.execute",
            effects=ACTION_EFFECTS["slotfill"],
        )

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------
    def run(self, events: list[ArrivalEvent]) -> ServiceMetrics:
        """Process an arrival stream; returns the collected metrics.

        Dataflows execute concurrently on disjoint container sets, up to
        ``max_containers // scheduler_containers`` at a time (the
        evaluation's 100-container cap, Table 3); arrivals beyond that
        wait in the queue — and queued dataflows raise the gains of the
        indexes they would use (Section 4).

        The loop is split into :meth:`begin_run` / :meth:`step` /
        :meth:`finish_run` so crash recovery can restore a pickled
        mid-run state and drive the remaining iterations itself.
        """
        state = self.begin_run(events)
        while self.step(state):
            pass
        return self.finish_run(state)

    def begin_run(self, events: list[ArrivalEvent]) -> RunState:
        """Initialise the loop state for an arrival stream."""
        # The knapsack memo is process-global: start every run cold so
        # the run's artifacts (including cache counters) are a pure
        # function of its config and seed.
        reset_knapsack_cache()
        metrics = ServiceMetrics(
            strategy=self.strategy.value,
            horizon_s=self.config.total_time_s,
            # Enabled runs share the observation's registry so the fault
            # counters land in --metrics-out; disabled runs still need a
            # real registry behind the view properties (a NullRegistry
            # would silently drop every count).
            registry=(
                self.obs.metrics if self.obs.enabled else MetricsRegistry()
            ),
        )
        ordered = sorted(events, key=lambda e: e.time)
        state = RunState(
            metrics=metrics,
            ordered=ordered,
            generated=[None] * len(ordered),
            slots=max(
                1, self.config.max_containers // self.config.scheduler_containers
            ),
        )
        self.recovery.on_run_begin(self, state)
        return state

    def _dataflow_at(self, state: RunState, i: int) -> Dataflow:
        dataflow = state.generated[i]
        if dataflow is None:
            dataflow = self.workload.next_dataflow(
                state.ordered[i].app, issued_at=state.ordered[i].time
            )
            state.generated[i] = dataflow
        return dataflow

    def _settle(self, state: RunState, until: float, epoch: Epoch) -> None:
        """Offer the effects of every execution finished by ``until``.

        Each effect — a completed build's storage-charge + catalog
        insert, a preemption kill's checkpoints, the history append — is
        an interleavable :class:`Action`. With no controller installed
        every action runs to completion at its offer site, preserving
        the historical inline order statement for statement.
        """
        metrics = state.metrics
        remaining = []
        for finish, result, decision, app in sorted(state.pending, key=lambda p: p[0]):
            if finish > until:
                remaining.append((finish, result, decision, app))
                continue
            for done in sorted(result.builds_completed, key=lambda b: b.finished_at):
                index = self.catalog.indexes.get(done.index_name)
                if index is None or index.partitions[done.partition_id].built:
                    continue
                epoch.offer(self._build_action(done, metrics, decision.gains))
            if result.checkpoints:
                epoch.offer(self._kill_action(result, metrics))
            epoch.offer(self._history_action(result, decision, metrics))
            if self._watchdog is not None:
                # Realized-benefit attribution: credit each available
                # index with the runtime this dataflow actually saved by
                # probing it (the interleaver's fold-in savings).
                savings = decision.chosen.index_savings
                for name in sorted(savings):
                    self._watchdog.ledger.on_probe(
                        name, result.finish_time, result.dataflow_name, savings[name]
                    )
                if savings:
                    self._watchdog.ledger.emit_roi(sorted(savings), result.finish_time)
        state.pending[:] = remaining

    def _acquire_slot(self, state: RunState, arrival: float) -> float:
        """Earliest start: the arrival itself if a slot is free, else
        when the earliest running dataflow finishes."""
        if len(state.running) < state.slots:
            return arrival
        return max(arrival, heapq.heappop(state.running))

    def step(self, state: RunState) -> bool:
        """Admit and execute the next arrival; False when the run is done.

        One step is the unit of crash consistency: the recovery log
        journals every state mutation inside it and commits (maybe
        snapshotting) at the end, so a crash anywhere in a step resumes
        from the previous step boundary and re-executes deterministically.
        """
        if state.exhausted or state.i >= len(state.ordered):
            return False
        crash_point("service.step")
        i = state.i
        event = state.ordered[i]
        metrics = state.metrics
        exec_start = self._acquire_slot(state, event.time)
        if exec_start >= self.config.total_time_s:
            state.exhausted = True
            return False
        self.recovery.record(
            "clock_advance", exec_start, iteration=i, issued_at=event.time
        )
        epoch = Epoch(f"step:{i}")
        self._settle(state, exec_start, epoch)
        self._retry_orphan_deletes(exec_start, metrics)
        self._apply_data_updates(exec_start, metrics)
        if self._watchdog is not None:
            for name in self._watchdog.check(exec_start):
                index = self.catalog.indexes.get(name)
                if not self.config.watchdog_rollback:
                    continue  # observe-only: flagged, never dropped
                if index is None or not index.any_built:
                    continue
                epoch.offer(self._watchdog_delete_action(name, exec_start, metrics))
        dataflow = self._dataflow_at(state, i)
        self.recovery.record(
            "dataflow_admitted",
            exec_start,
            iteration=i,
            dataflow=dataflow.name,
            app=event.app,
        )
        # Dataflows already issued but still waiting count toward the
        # index gains at age 0 (Section 4: "currently running or
        # queued").
        queued = []
        for j in range(i + 1, len(state.ordered)):
            if (
                state.ordered[j].time > exec_start
                or len(queued) >= self.config.max_queued_gain
            ):
                break
            queued.append(self._dataflow_at(state, j))
        epoch.pause("service.pre_decide")
        crash_point("service.pre_decide")
        mode = self.guard.decide_mode(event.time, exec_start)
        if mode == MODE_FULL:
            decision = self._decide(dataflow, now=exec_start, queued=queued)
        else:
            decision = self._decide_degraded(dataflow, mode)
            metrics.degraded_decisions += 1
        crash_point("service.post_decide")
        if self._watchdog is not None:
            # The ledger reconciles the tuner's decision-time prediction
            # for every index this decision builds against the benefit
            # it later realizes.
            for name, predicted in decision.predicted_build_gains().items():
                self._watchdog.ledger.on_predicted(name, exec_start, predicted)
        scheduled = decision.chosen.scheduled_builds
        if scheduled or decision.to_delete:
            self.recovery.record(
                "builds_scheduled",
                exec_start,
                iteration=i,
                builds=[[c.index_name, c.partition_id] for c in scheduled],
                to_delete=list(decision.to_delete),
            )
        for name in decision.to_delete:
            index = self.catalog.indexes.get(name)
            if index is None or not index.any_built:
                continue
            epoch.offer(
                self._delete_action(name, exec_start, metrics, decision.gains)
            )

        exec_out: list = []
        execute = self._execute_action(decision, exec_start, exec_out, dataflow.name)
        epoch.offer(execute)
        epoch.require(execute)
        result = exec_out[0]
        crash_point("service.post_execute")
        heapq.heappush(state.running, result.finish_time)
        state.pending.append((result.finish_time, result, decision, event.app))

        metrics.operator_retries += result.operator_retries
        metrics.operators_recovered += result.operators_recovered
        metrics.retries_exhausted += result.retries_exhausted
        metrics.containers_crashed += result.containers_crashed
        metrics.stragglers += result.stragglers
        metrics.builds_failed += result.builds_failed
        metrics.degraded_builds += result.builds_failed
        self.guard.record_build_failures(result.builds_failed, result.finish_time)
        metrics.outcomes.append(
            DataflowOutcome(
                name=dataflow.name,
                app=event.app,
                issued_at=event.time,
                started_at=exec_start,
                finished_at=result.finish_time,
                money_quanta=result.money_quanta,
                ops_executed=result.dataflow_ops,
                builds_completed=len(result.builds_completed),
                builds_killed=result.builds_killed,
                operator_retries=result.operator_retries,
            )
        )
        fact: dict[str, object] = {
            "dataflow": dataflow.name,
            "money_quanta": result.money_quanta,
            "builds_completed": len(result.builds_completed),
            "builds_killed": result.builds_killed,
        }
        self.obs.journal.emit(
            "dataflow_executed",
            t=result.finish_time,
            app=event.app,
            issued_at=event.time,
            started_at=exec_start,
            **fact,
        )
        self.obs.metrics.counter("service/dataflows_executed").inc()
        self.recovery.record("execution", result.finish_time, iteration=i, **fact)
        epoch.drain("service.step_end")
        state.i = i + 1
        self.recovery.commit(self, state, exec_start)
        crash_point("service.post_commit")
        return True

    def finish_run(self, state: RunState) -> ServiceMetrics:
        """Settle outstanding work and close out the metrics."""
        crash_point("service.pre_finish")
        metrics = state.metrics
        epoch = Epoch("finish")
        self._settle(state, float("inf"), epoch)
        epoch.drain("service.finish")
        self._retry_orphan_deletes(self.config.total_time_s, metrics)
        if self._watchdog is not None:
            self._watchdog.ledger.finish(self.config.total_time_s)
        metrics.faults_injected = dict(self.injector.stats.by_kind)
        if metrics.total_faults_injected:
            logger.info(
                "run complete under faults: %s; retries=%d recovered=%d "
                "crashes=%d checkpoints=%d resumes=%d degraded=%d",
                metrics.faults_injected, metrics.operator_retries,
                metrics.operators_recovered, metrics.containers_crashed,
                metrics.checkpoints_recorded, metrics.checkpoint_resumes,
                metrics.degraded_builds,
            )
        # Settle storage accounting to the horizon.
        last = metrics.snapshots[-1].time if metrics.snapshots else 0.0
        if last < self.config.total_time_s:
            metrics.snapshots.append(self._snapshot(self.config.total_time_s))
        self.recovery.on_run_finished(self, state, self.config.total_time_s)
        return metrics

    def _snapshot(self, time: float) -> IndexSnapshot:
        time = max(time, self.storage.accounted_until)
        built = self.catalog.built_indexes()
        partitions = sum(len(i.built_partition_ids()) for i in built)
        return IndexSnapshot(
            time=time,
            indexes_built=len(built),
            index_partitions_built=partitions,
            storage_mb=self.storage.live_mb,
            cumulative_storage_dollars=self.storage.storage_cost(time),
        )
