"""Online index tuning (Algorithm 1).

Triggered whenever a dataflow is issued (and periodically, to delete
indexes that stopped being beneficial): computes the gains of all
potential indexes over the historical dataflows plus the incoming one,
ranks the beneficial ones, interleaves their build operators into the
dataflow's schedule, and flags non-beneficial built indexes for
deletion.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any

from repro.data.catalog import Catalog
from repro.data.index_model import Index
from repro.dataflow.graph import Dataflow
from repro.interleave.lp import InterleavedSchedule, lp_interleave, select_fastest
from repro.interleave.online import online_interleave
from repro.interleave.slots import BuildCandidate, slot_fill_payloads
from repro.explore.hooks import note
from repro.obs import NOOP_OBS, Observation
from repro.recovery.hooks import crash_point
from repro.scheduling.skyline import SkylineScheduler
from repro.tuning.gain import GainModel, IndexGain, dataflow_index_gains, gain_table
from repro.tuning.history import DataflowHistory, DataflowRecord
from repro.tuning.incremental import IncrementalGainEvaluator
from repro.tuning.ranking import classify


@dataclass
class TunerDecision:
    """The output of one Algorithm 1 invocation.

    Attributes:
        chosen: The selected interleaved schedule (Sdf + SBI).
        skyline: All interleaved schedules the scheduler produced.
        gains: Evaluated gain of every potential index.
        ranked: Beneficial indexes, best first.
        to_delete: Names of built indexes to drop (DI).
    """

    chosen: InterleavedSchedule
    skyline: list[InterleavedSchedule] = field(default_factory=list)
    gains: dict[str, IndexGain] = field(default_factory=dict)
    ranked: list[IndexGain] = field(default_factory=list)
    to_delete: list[str] = field(default_factory=list)
    # gtd/gmd of the incoming dataflow, computed on its *original*
    # runtimes (before available indexes were folded in); the service
    # records these into Hd when the dataflow finishes.
    dataflow_time_gains: dict[str, float] = field(default_factory=dict)
    dataflow_money_gains: dict[str, float] = field(default_factory=dict)

    def predicted_build_gains(self) -> dict[str, float]:
        """Combined-dollar gain predicted for each index this decision builds.

        The ROI ledger records these at decision time so a later
        regression (workload shift) can be measured against what the
        tuner believed the index was worth when it paid for it.
        """
        scheduled = {c.index_name for c in self.chosen.scheduled_builds}
        return {
            name: self.gains[name].combined_dollars
            for name in sorted(scheduled)
            if name in self.gains
        }


class OnlineIndexTuner:
    """Algorithm 1 over a catalog, a gain model and a dataflow history.

    Attributes:
        interleaver: "lp" (Algorithm 2) or "online" (Section 5.3.2).
        max_candidates: Cap on build operators offered to the
            interleaver per dataflow (the best-ranked indexes win); keeps
            the per-slot knapsacks tractable.
    """

    def __init__(
        self,
        catalog: Catalog,
        gain_model: GainModel,
        history: DataflowHistory,
        scheduler: SkylineScheduler,
        interleaver: str = "lp",
        max_candidates: int = 150,
        obs: Observation | None = None,
    ) -> None:
        if interleaver not in ("lp", "online"):
            raise ValueError("interleaver must be 'lp' or 'online'")
        if max_candidates <= 0:
            raise ValueError("max_candidates must be positive")
        self.catalog = catalog
        self.gain_model = gain_model
        self.history = history
        self.scheduler = scheduler
        self.interleaver = interleaver
        self.max_candidates = max_candidates
        self.obs = obs if obs is not None else NOOP_OBS
        # Incremental maintenance of the faded gain sums: the running
        # aggregates are decay-rescaled between decisions instead of
        # re-folding the whole window (tolerance-equal to the naive
        # model; see repro.tuning.incremental). The naive refold is kept
        # only as the frozen oracle in tests/differential/oracle.py.
        self._incremental = IncrementalGainEvaluator(gain_model, history)
        # Per-dataflow gtd/gmd are intrinsic to the dataflow (original
        # runtimes); queued dataflows are re-examined at every decision,
        # so memoise by name with LRU eviction — hot names (queued
        # dataflows re-ranked at every arrival) survive cache pressure.
        self._df_gain_cache: OrderedDict[
            str, tuple[dict[str, float], dict[str, float]]
        ] = OrderedDict()
        self._size_mb: dict[str, float] = {}
        # Per index name: (index, build_version, build table), where the
        # table lists (partition id, record share, build duration) of each
        # unbuilt partition in id order. Every build-state change, a
        # checkpoint included, bumps the version, so an entry is served
        # only while the index is exactly as it was derived from.
        self._build_tables: dict[str, tuple[Index, int, list[tuple[int, float, float]]]] = {}

    def __getstate__(self) -> dict[str, Any]:
        """Pickle without the build-table memo: it is derived from the
        catalog and rebuilt on first use, so snapshots do not carry it."""
        state = self.__dict__.copy()
        state["_build_tables"] = {}
        return state

    # ------------------------------------------------------------------
    # Gain bookkeeping
    # ------------------------------------------------------------------
    def index_size_mb(self, name: str) -> float:
        """Size of the whole index, memoised per name: it depends only on
        the index's table and spec."""
        size = self._size_mb.get(name)
        if size is None:
            index = self.catalog.index(name)
            size = self.gain_model.cost_model.index_size_mb(index.table, index.spec)
            self._size_mb[name] = size
        return size

    #: Bound of the per-dataflow gain memo (LRU-evicted beyond this).
    GAIN_CACHE_MAX = 512

    def dataflow_gains(self, dataflow: Dataflow) -> tuple[dict[str, float], dict[str, float]]:
        """gtd/gmd of one dataflow for every index it can use (memoised)."""
        cached = self._df_gain_cache.get(dataflow.name)
        if cached is not None:
            self._df_gain_cache.move_to_end(dataflow.name)
            return cached
        known = [n for n in dataflow.candidate_indexes if n in self.catalog.indexes]
        read = {n: self.gain_model.index_read_quanta(self.catalog.index(n)) for n in known}
        sizes = {n: self.index_size_mb(n) for n in known}
        gains = dataflow_index_gains(
            dataflow,
            self.gain_model.pricing,
            index_read_quanta=read,
            net_bw_mb_s=self.gain_model.cost_model.container.net_bw_mb_s,
            index_sizes_mb=sizes,
        )
        while len(self._df_gain_cache) >= self.GAIN_CACHE_MAX:
            self._df_gain_cache.popitem(last=False)
        self._df_gain_cache[dataflow.name] = gains
        return gains

    def record_execution(
        self,
        dataflow_name: str,
        finished_at: float,
        time_gains: dict[str, float],
        money_gains: dict[str, float],
    ) -> None:
        """Store an executed dataflow in ``Hd``.

        The gains must be the ones computed against the dataflow's
        *original* runtime estimates (returned in the TunerDecision), not
        the post-index-update runtimes — otherwise an index would erode
        its own recorded usefulness simply by existing.
        """
        self.history.add(
            DataflowRecord(
                name=dataflow_name,
                executed_at=finished_at,
                time_gains=time_gains,
                money_gains=money_gains,
            )
        )

    def evaluate_gains(
        self,
        now: float,
        current: Dataflow | None = None,
        current_gains: tuple[dict[str, float], dict[str, float]] | None = None,
        queued: list[Dataflow] | None = None,
    ) -> dict[str, IndexGain]:
        """Gains of all potential indexes over Hd ∪ {current ∪ queued}, in
        index-name order.

        Per Section 4, the sum in Equations 4/5 covers the historical
        dataflows in the window *and* the currently running or queued
        ones, which contribute at age 0 (ΔT = 0, no fading). A long
        queue of dataflows that would use an index therefore raises its
        gain — exactly when building it pays off most.
        """
        live: list[tuple[dict[str, float], dict[str, float]]] = []
        if current_gains is not None:
            live.append(current_gains)
        elif current is not None:
            live.append(self.dataflow_gains(current))
        for dataflow in queued or ():
            live.append(self.dataflow_gains(dataflow))
        names = set(self.history.index_names())
        for time_gains, _ in live:
            names |= set(time_gains)
        indexes = self.catalog.indexes
        known = [name for name in sorted(names) if name in indexes]
        # Historical inflow from the maintained running sums, every index
        # advanced in one pass; live dataflows contribute at dc(0) = 1 on
        # top (age 0), added to each index in live order.
        sums = self._incremental.faded_sums_many(known, now)
        sum_t = [terms[0] for terms in sums]
        sum_m = [terms[1] for terms in sums]
        counts = [terms[2] for terms in sums]
        slot = {name: k for k, name in enumerate(known)}
        mc = self.gain_model.pricing.quantum_price
        for time_gains, money_gains in live:
            for name, gtd in time_gains.items():
                at = slot.get(name)
                if at is not None:
                    sum_t[at] += gtd
                    sum_m[at] += mc * money_gains[name]
                    counts[at] += 1
        evaluated = self.gain_model.evaluate_many(
            [indexes[name] for name in known], sum_t, sum_m, counts
        )
        return dict(zip(known, evaluated))

    # ------------------------------------------------------------------
    # Build candidates
    # ------------------------------------------------------------------
    def build_candidates(self, ranked: list[IndexGain]) -> list[BuildCandidate]:
        """Per-partition build operators of the ranked beneficial indexes.

        The index's combined gain is split over its unbuilt partitions in
        proportion to the records they cover (partial indexes are usable
        incrementally). Durable checkpoint progress from interrupted
        builds is subtracted from the duration: a resumed build only
        pays for the remaining work.
        """
        tables = self._build_tables
        candidates: list[BuildCandidate] = []
        for gain in ranked:
            name = gain.index_name
            index = self.catalog.index(name)
            entry = tables.get(name)
            if entry is None or entry[0] is not index or entry[1] != index.build_version:
                entry = tables[name] = (index, index.build_version, self._build_table(index))
            combined = gain.combined_dollars
            # (-gain, partition_id) order: the most valuable partitions
            # are offered first and ties never depend on dict insertion
            # order (equal-share partitions keep ascending pid). Partition
            # ids are unique, so the duration never decides the order, and
            # only the candidates taken are built.
            per_index = sorted([
                (-max(combined * share, 0.0), pid, duration)
                for pid, share, duration in entry[2]
            ])
            take = self.max_candidates - len(candidates)
            candidates.extend(
                BuildCandidate(name, pid, duration, -negated)
                for negated, pid, duration in per_index[:take]
            )
            if len(candidates) >= self.max_candidates:
                break
        return candidates

    def _build_table(self, index: Index) -> list[tuple[int, float, float]]:
        """(partition id, record share, remaining build seconds) of each
        unbuilt partition of ``index``, in id order."""
        table, spec = index.table, index.spec
        cost_model = self.gain_model.cost_model
        total_records = max(1, table.num_records)
        rows: list[tuple[int, float, float]] = []
        for pid in index.unbuilt_partition_ids():
            partition = table.partition(pid)
            model = cost_model.partition_model(table, spec, partition)
            share = partition.num_records / total_records
            remaining_s = model.total_build_seconds - index.checkpoint_seconds(pid)
            rows.append((pid, share, max(remaining_s, 1e-6)))
        return rows

    # ------------------------------------------------------------------
    # Algorithm 1
    # ------------------------------------------------------------------
    def on_dataflow(
        self,
        dataflow: Dataflow,
        now: float,
        queued: list[Dataflow] | None = None,
    ) -> TunerDecision:
        """Schedule ``dataflow`` with interleaved builds; flag deletions.

        ``queued`` are dataflows already issued but not yet executed;
        they contribute to the gains at age 0 (Section 4).
        """
        crash_point("tuner.pre_rank")
        note("tuner.decide")
        current_gains = self.dataflow_gains(dataflow)
        gains = self.evaluate_gains(
            now, current=dataflow, current_gains=current_gains, queued=queued
        )
        classified = classify(gains.values())
        ranked = classified.ranked
        candidates = self.build_candidates(ranked)

        built = self.catalog.built_indexes()
        available = {idx.name for idx in built}
        fractions = {idx.name: idx.built_fraction() for idx in built}
        sizes_mb = {name: self.index_size_mb(name) for name in available}
        interleave = lp_interleave if self.interleaver == "lp" else online_interleave
        skyline = interleave(
            dataflow,
            candidates,
            self.scheduler,
            available_indexes=available,
            index_fractions=fractions,
            index_sizes_mb=sizes_mb,
            obs=self.obs,
        )
        chosen = select_fastest(skyline)
        crash_point("tuner.post_interleave")

        to_delete = [
            g.index_name
            for g in classified.deletable
            if self.catalog.index(g.index_name).any_built
        ]
        obs = self.obs
        if obs.enabled:
            obs.journal.emit(
                "tuner_decision",
                t=now,
                dataflow=dataflow.name,
                interleaver=self.interleaver,
                candidates_offered=len(candidates),
                builds_scheduled=chosen.num_builds,
                skyline_points=len(skyline),
                ranked=[g.index_name for g in ranked],
                to_delete=list(to_delete),
                gains=gain_table(gains.values(), classified.flags),
            )
            for payload in slot_fill_payloads(chosen.build_assignments):
                obs.journal.emit(
                    "slot_fill", t=now, dataflow=dataflow.name, **payload
                )
            m = obs.metrics
            m.counter("tuner/decisions").inc()
            m.counter("tuner/candidates_offered").inc(len(candidates))
            m.counter("tuner/builds_scheduled").inc(chosen.num_builds)
            m.counter("tuner/deletions_flagged").inc(len(to_delete))
            self.gain_model.cost_stats.publish(m, "cache/gain_costs")
            self._incremental.stats.publish(m, "cache/gain_sums")
        return TunerDecision(
            chosen=chosen,
            skyline=skyline,
            gains=gains,
            ranked=ranked,
            to_delete=to_delete,
            dataflow_time_gains=current_gains[0],
            dataflow_money_gains=current_gains[1],
        )

    def periodic_cleanup(self, now: float) -> list[str]:
        """Deletion-only trigger (fires when no dataflow arrives)."""
        gains = self.evaluate_gains(now, current=None)
        classified = classify(gains.values())
        to_delete = [
            g.index_name
            for g in classified.deletable
            if self.catalog.index(g.index_name).any_built
        ]
        if self.obs.enabled:
            self.obs.journal.emit(
                "periodic_cleanup",
                t=now,
                to_delete=list(to_delete),
                gains=gain_table(
                    [gains[name] for name in sorted(to_delete)], classified.flags
                ),
            )
            self.obs.metrics.counter("tuner/cleanups").inc()
            self.obs.metrics.counter("tuner/deletions_flagged").inc(len(to_delete))
        return to_delete
