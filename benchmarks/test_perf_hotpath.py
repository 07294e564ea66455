"""Hot-path performance benchmark: before/after the optimisation layer.

Ten measurements, each against the frozen naive oracles of
``tests/differential/`` (the pre-optimisation implementations), so
"before" numbers are produced by the code that actually shipped before,
in the same process, on the same inputs:

* **gain window update** — per-decision faded-sum evaluation over a
  long history: naive O(window) refold vs the incremental evaluator
  (required: >= 3x);
* **gain decision** — the faded sums of one service-shaped decision
  after another: every index that 90 finished and 30 live dataflows of
  the evaluation catalog (500 indexes) can use, one record finishing
  per decision. The frozen per-index evaluator vs one batched pass,
  with identical sums and cache counts asserted (required: >= 1.3x);
* **tuner decision** — the rest of the same decisions, from the summed
  inflows to the build candidates: the frozen per-index Eq. 3-5, a scan
  of every index's partition states for the built indexes and their
  built fractions, and each ranked index's unbuilt partitions re-derived,
  vs one ``evaluate_many`` pass, the maintained build-state totals and
  the memoised build tables, while each decision's first candidates
  complete, a killed build checkpoints and data updates invalidate
  partitions; identical gains, rankings, candidates, fractions and cache
  counts asserted (required: >= 1.6x);
* **skyline schedule** — Algorithm 4 on workload DAGs: full branch +
  rescore-from-scratch vs dominance prefilter + incremental objectives
  (required: >= 5x);
* **skyline schedule with builds** — the online-interleaving shape:
  100-operator app dataflows each carrying 100 optional builds, at the
  service's caps (20 containers, skyline 4), with identical assignments
  asserted (required: >= 30x);
* **full simulated day** — the end-to-end service loop: the optimised
  stack vs the service with the oracle scheduler, the oracle knapsack
  (no memo) and the oracle gain refold patched back in, timed over seven
  pairs that alternate which side runs first; the median of the pairs'
  speedups, reported with its quartiles (required: >= 1.5x);
* **recovery commit** — the commit record's catalog digest over the
  evaluation catalog's 500 indexes, with a few seeded build-state
  mutations between commits: the from-scratch oracle vs the manager's
  per-index memo, cold first commit included, with identical digests
  asserted (required: >= 5x);
* **recovery snapshot** — the snapshot payload of the fully hooked
  configuration run over two simulated hours (60 steps, near churn's
  89) after its last step: one ``pickle.dumps`` of the whole run, obs
  journal and tracer included, vs the segment chunk of the obs entries
  since the run's last snapshot plus the dump with those lists
  detached, with identical unpickled artifacts asserted (required:
  >= 1.5x);
* **recovery snapshot handoff** — one snapshot boundary of the same run
  as the service process sees it: the frozen synchronous writer (chunk,
  pickle, write, fsync, rename and prune) vs the boundary that hands
  the pickling and the write to a forked writer, with byte-identical
  published files asserted (required: >= 4x);
* **dataflow generation** — 300 dataflows of 100 operators, 100 per
  app, each side from a fresh ``build_workload(seed=7)``: the per-call
  draws (one ``choice`` per table, one ``integers`` per speedup, one
  ``uniform`` per edge) patched back into the generators vs one batched
  ``integers`` call per dataflow and the ``uniform`` helper, with
  identical dataflows and final RNG state asserted; the median of seven
  pairs that alternate which side runs first, reported with its
  quartiles (required: >= 1.3x).

Headline numbers land in ``BENCH_hotpath.json`` via the
``figure_metrics`` fixture when ``REPRO_BENCH_METRICS_DIR`` is set.
"""

from __future__ import annotations

import pickle
import tempfile
import time
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
from conftest import print_header, print_rows

from repro import prepare_run
from repro.cloud.pricing import PAPER_PRICING
from repro.core.config import ExperimentConfig
from repro.core.metrics import ServiceMetrics
from repro.core.service import QaaSService, Strategy
from repro.data.catalog import build_workload_catalog
from repro.data.index_model import IndexCostModel
from repro.dataflow.client import ArrivalEvent, app_names, build_workload
from repro.obs import NOOP_OBS, Observation, trace_json
from repro.perf import CacheStats
from repro.recovery.manager import (
    SEGMENT_NAME,
    RecoveryManager,
    obs_lists,
    rebuild_obs_lists,
    segment_chunk,
)
from repro.recovery.snapshot import join_writer, read_chunks, snapshot_path
from repro.recovery.wal import WriteAheadLog
from repro.scheduling.skyline import SkylineScheduler
from repro.tuning.gain import GainModel, GainParameters
from repro.tuning.history import DataflowHistory, DataflowRecord
from repro.tuning.incremental import IncrementalGainEvaluator
from repro.tuning.ranking import rank_indexes
from repro.tuning.tuner import OnlineIndexTuner

from tests.differential.oracle import (
    OracleGainModel,
    OracleIncrementalGainEvaluator,
    OracleSkylineScheduler,
    oracle_catalog_digest,
    oracle_faded_sums,
    oracle_solve_knapsack,
    oracle_sync_snapshot,
)
from tests.differential.test_decision_oracle import (
    oracle_build_candidates,
    scanned_any_built,
    scanned_built_fraction,
)
from tests.differential.test_generator_oracle import fingerprint, patch_oracle_draws
from tests.differential.test_skyline_oracle import (
    APPS,
    SERVICE_CASE,
    _app_flow_with_builds,
    _fingerprint,
)
from tests.golden import hooked_config

INDEX = "lineitem__l_orderkey"


# ----------------------------------------------------------------------
# Part 1: gain window update (microbenchmark, >= 3x required)
# ----------------------------------------------------------------------
def _gain_fixture(num_records: int) -> tuple[GainModel, DataflowHistory]:
    params = GainParameters(fade_quanta=5.0, window_quanta=60.0)
    model = GainModel(PAPER_PRICING, IndexCostModel(PAPER_PRICING), params)
    history = DataflowHistory(PAPER_PRICING)
    for i in range(num_records):
        history.add(
            DataflowRecord(
                name=f"df{i}",
                executed_at=30.0 * i,
                time_gains={INDEX: 2.0 + (i % 7)},
                money_gains={INDEX: 1.0 + (i % 5)},
            )
        )
    return model, history


def _bench_gain_update(num_records: int = 1500, checkpoints: int = 300):
    model, history = _gain_fixture(num_records)
    start_now = 30.0 * num_records
    nows = [start_now + 45.0 * k for k in range(checkpoints)]

    t0 = time.perf_counter()
    for now in nows:
        oracle_faded_sums(model, history, INDEX, now)
    naive_s = time.perf_counter() - t0

    evaluator = IncrementalGainEvaluator(model, history)
    evaluator.faded_sums(INDEX, nows[0])  # cold rebuild outside the timer
    t0 = time.perf_counter()
    for now in nows:
        evaluator.faded_sums(INDEX, now)
    incremental_s = time.perf_counter() - t0

    return {
        "window_records": num_records,
        "checkpoints": checkpoints,
        "naive_ops_per_s": checkpoints / naive_s,
        "incremental_ops_per_s": checkpoints / incremental_s,
        "speedup": naive_s / incremental_s,
    }


# ----------------------------------------------------------------------
# Part 1b: the faded sums of service-shaped decisions (>= 1.3x required)
# ----------------------------------------------------------------------
def _bench_gain_decision(records: int = 90, live: int = 30, decisions: int = 60):
    workload = build_workload(PAPER_PRICING, seed=7)
    model = GainModel(PAPER_PRICING, IndexCostModel(PAPER_PRICING), GainParameters())
    history = DataflowHistory(PAPER_PRICING)
    tuner = OnlineIndexTuner(
        workload.catalog, model, history, SkylineScheduler(PAPER_PRICING), interleaver="online"
    )
    apps = app_names()
    interval_s = 60.0
    flows = [
        workload.next_dataflow(apps[i % len(apps)], interval_s * i)
        for i in range(records + live + decisions)
    ]
    gains = [tuner.dataflow_gains(flow) for flow in flows]
    for i in range(records):
        history.add(DataflowRecord(flows[i].name, interval_s * i, *gains[i]))
    frozen = OracleIncrementalGainEvaluator(model, history)
    batched = IncrementalGainEvaluator(model, history)
    naive_s = batched_s = 0.0
    indexes = 0
    for d in range(decisions + 1):
        now = interval_s * (records + d)
        if d:
            # The oldest live dataflow finishes; the next one queues.
            i = records + d - 1
            history.add(DataflowRecord(flows[i].name, now, *gains[i]))
        names = set(history.index_names())
        for time_gains, _ in gains[records + d : records + d + live]:
            names |= set(time_gains)
        known = [name for name in sorted(names) if name in workload.catalog.indexes]
        t0 = time.perf_counter()
        expected = [frozen.faded_sums(name, now) for name in known]
        t1 = time.perf_counter()
        actual = batched.faded_sums_many(known, now)
        t2 = time.perf_counter()
        assert actual == expected
        if d:  # the first decision builds every state cold, outside the timers
            naive_s += t1 - t0
            batched_s += t2 - t1
            indexes += len(known)
    stats = (batched.stats.hits, batched.stats.misses, batched.stats.invalidations)
    assert stats == (frozen.stats.hits, frozen.stats.misses, frozen.stats.invalidations)
    return {
        "history_records": records,
        "live_dataflows": live,
        "decisions": decisions,
        "indexes_per_decision": indexes / decisions,
        "naive_ops_per_s": decisions / naive_s,
        "batched_ops_per_s": decisions / batched_s,
        "speedup": naive_s / batched_s,
    }


# ----------------------------------------------------------------------
# Part 1c: the rest of a tuner decision, inflows to candidates
# ----------------------------------------------------------------------
def _bench_tuner_decision(
    records: int = 90, live: int = 30, decisions: int = 60, builds: int = 4
):
    workload = build_workload(PAPER_PRICING, seed=7)
    catalog = workload.catalog
    cost_model = IndexCostModel(PAPER_PRICING)
    params = GainParameters()
    model = GainModel(PAPER_PRICING, cost_model, params)
    frozen = OracleGainModel(PAPER_PRICING, cost_model, params)
    history = DataflowHistory(PAPER_PRICING)
    tuner = OnlineIndexTuner(
        catalog, model, history, SkylineScheduler(PAPER_PRICING), interleaver="online"
    )
    apps = app_names()
    interval_s = 60.0
    flows = [
        workload.next_dataflow(apps[i % len(apps)], interval_s * i)
        for i in range(records + live + decisions)
    ]
    gains = [tuner.dataflow_gains(flow) for flow in flows]
    for i in range(records):
        history.add(DataflowRecord(flows[i].name, interval_s * i, *gains[i]))
    sums = IncrementalGainEvaluator(model, history)
    mc = PAPER_PRICING.quantum_price
    rng = np.random.default_rng(7)
    naive_s = memo_s = 0.0
    indexes_seen = candidates_seen = 0
    candidates: list = []
    for d in range(decisions + 1):
        now = interval_s * (records + d)
        if d:
            i = records + d - 1
            history.add(DataflowRecord(flows[i].name, now, *gains[i]))
            # The step's first builds complete, the next one is killed
            # after a checkpoint, and now and then a data update
            # invalidates a built partition.
            for done in candidates[:builds]:
                catalog.indexes[done.index_name].mark_built(done.partition_id, now)
                model.invalidate_index(done.index_name)
                frozen.invalidate_index(done.index_name)
            if len(candidates) > builds:
                killed = candidates[builds]
                catalog.indexes[killed.index_name].record_checkpoint(killed.partition_id, 5.0)
            built = [index for index in catalog.indexes.values() if scanned_any_built(index)]
            if d % 10 == 0 and built:
                index = built[int(rng.integers(len(built)))]
                index.invalidate_partition(index.built_partition_ids()[0])
                model.invalidate_index(index.name)
                frozen.invalidate_index(index.name)
        live_gains = gains[records + d : records + d + live]
        names = set(history.index_names())
        for time_gains, _ in live_gains:
            names |= set(time_gains)
        known = [name for name in sorted(names) if name in catalog.indexes]
        indexes = [catalog.indexes[name] for name in known]
        terms = sums.faded_sums_many(known, now)
        sum_t = [t[0] for t in terms]
        sum_m = [t[1] for t in terms]
        counts = [t[2] for t in terms]
        slot = {name: k for k, name in enumerate(known)}
        for time_gains, money_gains in live_gains:
            for name, gtd in time_gains.items():
                at = slot.get(name)
                if at is not None:
                    sum_t[at] += gtd
                    sum_m[at] += mc * money_gains[name]
                    counts[at] += 1

        t0 = time.perf_counter()
        expected = [
            frozen.evaluate_from_sums(index, sum_t[k], sum_m[k], counts[k])
            for k, index in enumerate(indexes)
        ]
        t1 = time.perf_counter()
        ranked_expected = rank_indexes(expected)
        t2 = time.perf_counter()
        candidates_expected = oracle_build_candidates(
            catalog, cost_model, ranked_expected, tuner.max_candidates
        )
        fractions_expected = {
            index.name: scanned_built_fraction(index)
            for index in catalog.indexes.values()
            if scanned_any_built(index)
        }
        t3 = time.perf_counter()
        actual = model.evaluate_many(indexes, sum_t, sum_m, counts)
        t4 = time.perf_counter()
        ranked = rank_indexes(actual)
        t5 = time.perf_counter()
        candidates = tuner.build_candidates(ranked)
        fractions = {index.name: index.built_fraction() for index in catalog.built_indexes()}
        t6 = time.perf_counter()

        assert actual == expected
        assert ranked == ranked_expected
        assert candidates == candidates_expected
        assert fractions == fractions_expected
        if d:  # the first decision fills every memo cold, outside the timers
            naive_s += (t1 - t0) + (t3 - t2)
            memo_s += (t4 - t3) + (t6 - t5)
            indexes_seen += len(known)
            candidates_seen += len(candidates)
    stats = (model.cost_stats.hits, model.cost_stats.misses, model.cost_stats.invalidations)
    assert stats == (
        frozen.cost_stats.hits, frozen.cost_stats.misses, frozen.cost_stats.invalidations
    )
    return {
        "history_records": records,
        "live_dataflows": live,
        "decisions": decisions,
        "indexes_per_decision": indexes_seen / decisions,
        "candidates_per_decision": candidates_seen / decisions,
        "built_indexes": len(fractions),
        "naive_ops_per_s": decisions / naive_s,
        "memoised_ops_per_s": decisions / memo_s,
        "speedup": naive_s / memo_s,
    }


# ----------------------------------------------------------------------
# Part 2: skyline schedule (oracle vs optimised)
# ----------------------------------------------------------------------
def _bench_skyline(rounds: int = 4):
    workload = build_workload(PAPER_PRICING, seed=42)
    flows = [
        workload.next_dataflow(app, issued_at=0.0)
        for app in ("montage", "ligo", "cybershake", "montage")
    ]
    oracle = OracleSkylineScheduler(PAPER_PRICING, max_skyline=4, max_containers=10)
    optimised = SkylineScheduler(PAPER_PRICING, max_skyline=4, max_containers=10)

    t0 = time.perf_counter()
    for _ in range(rounds):
        for flow in flows:
            oracle.schedule(flow)
    naive_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    for _ in range(rounds):
        for flow in flows:
            optimised.schedule(flow)
    optimised_s = time.perf_counter() - t0

    calls = rounds * len(flows)
    return {
        "schedule_calls": calls,
        "naive_ops_per_s": calls / naive_s,
        "optimised_ops_per_s": calls / optimised_s,
        "speedup": naive_s / optimised_s,
    }


# ----------------------------------------------------------------------
# Part 2b: skyline schedule of dataflows carrying builds (>= 10x required)
# ----------------------------------------------------------------------
def _bench_skyline_builds(rounds: int = 5):
    num_ops, num_builds, max_containers, max_skyline = SERVICE_CASE
    flows = [_app_flow_with_builds(app, num_ops, num_builds) for app in APPS]
    oracle = OracleSkylineScheduler(
        PAPER_PRICING, max_containers=max_containers, max_skyline=max_skyline
    )
    optimised = SkylineScheduler(
        PAPER_PRICING, max_containers=max_containers, max_skyline=max_skyline
    )

    t0 = time.perf_counter()
    expected = [_fingerprint(oracle.schedule(flow)) for flow in flows]
    naive_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    for _ in range(rounds):
        actual = [_fingerprint(optimised.schedule(flow)) for flow in flows]
    optimised_s = (time.perf_counter() - t0) / rounds

    assert actual == expected
    return {
        "schedule_calls": len(flows),
        "operators_per_flow": num_ops + num_builds,
        "naive_ops_per_s": len(flows) / naive_s,
        "optimised_ops_per_s": len(flows) / optimised_s,
        "speedup": naive_s / optimised_s,
    }


# ----------------------------------------------------------------------
# Part 3: full simulated day, end to end (>= 1.5x required)
# ----------------------------------------------------------------------
class _OracleSchedulerForService(OracleSkylineScheduler):
    """The frozen scheduler with the service's constructor surface."""

    def __init__(self, *args, obs=None, **kwargs):
        super().__init__(*args, **kwargs)
        self.obs = NOOP_OBS


class _OracleGainSums:
    """The naive per-decision refold with the tuner's evaluator surface."""

    def __init__(self, model: GainModel, history: DataflowHistory) -> None:
        self.model = model
        self.history = history
        self.stats = CacheStats()

    def faded_sums(self, index_name, now):
        return oracle_faded_sums(self.model, self.history, index_name, now)

    def faded_sums_many(self, names, now):
        return [self.faded_sums(name, now) for name in names]


E2E_CONFIG = ExperimentConfig(
    total_time_s=30 * 60.0,
    max_skyline=2,
    scheduler_containers=10,
    max_candidates=40,
    max_queued_gain=10,
    seed=5,
)


def _run_service(config: ExperimentConfig) -> tuple[float, ServiceMetrics]:
    workload = build_workload(config.pricing, seed=config.seed)
    service = QaaSService(workload, config, Strategy.GAIN)
    events = [ArrivalEvent(time=(i + 1) * 120.0, app="montage") for i in range(6)]
    t0 = time.perf_counter()
    metrics = service.run(events)
    return time.perf_counter() - t0, metrics


def _bench_e2e(monkeypatch, pairs: int = 7):
    # A single timing per side swings between about 3x and 7x on the
    # same code, so each side runs once per pair, the side that goes
    # first alternating, and the floor applies to the median of the
    # pairs' speedups.
    def optimised():
        return _run_service(E2E_CONFIG)

    def naive():
        # Patch the pre-optimisation stack back in: oracle scheduler,
        # oracle knapsack (no memo, per-node suffix rebuilds), naive gain
        # refold.
        with monkeypatch.context() as patch:
            patch.setattr("repro.core.service.SkylineScheduler", _OracleSchedulerForService)
            patch.setattr("repro.interleave.lp.solve_knapsack", oracle_solve_knapsack)
            patch.setattr("repro.tuning.tuner.IncrementalGainEvaluator", _OracleGainSums)
            return _run_service(E2E_CONFIG)

    optimised_s, naive_s, speedups = [], [], []
    for pair in range(pairs):
        order = (optimised, naive) if pair % 2 == 0 else (naive, optimised)
        timed = {side: side() for side in order}
        (fast_s, fast_metrics), (slow_s, slow_metrics) = timed[optimised], timed[naive]
        # The exact scheduler optimisations and the knapsack memo preserve
        # results bit for bit; the incremental gain path is
        # tolerance-equal, so the two simulated days must agree on the
        # headline outcomes.
        assert slow_metrics.num_finished == fast_metrics.num_finished
        optimised_s.append(fast_s)
        naive_s.append(slow_s)
        speedups.append(slow_s / fast_s)
    q1, median, q3 = (float(q) for q in np.percentile(speedups, [25, 50, 75]))
    naive_median = float(np.median(naive_s))
    optimised_median = float(np.median(optimised_s))
    return {
        "horizon_quanta": 30,
        "pairs": pairs,
        "naive_wall_s": naive_median,
        "optimised_wall_s": optimised_median,
        "naive_days_per_hour": 3600.0 / naive_median,
        "optimised_days_per_hour": 3600.0 / optimised_median,
        "speedup": median,
        "speedup_q1": q1,
        "speedup_q3": q3,
        "dataflows_finished": fast_metrics.num_finished,
    }


# ----------------------------------------------------------------------
# Part 4: recovery commit digest (>= 5x required)
# ----------------------------------------------------------------------
def _bench_recovery_commit(commits: int = 80, mutations: int = 4):
    catalog = build_workload_catalog(PAPER_PRICING)
    indexes = [catalog.indexes[name] for name in sorted(catalog.indexes)]
    service = SimpleNamespace(catalog=catalog)
    rng = np.random.default_rng(7)
    naive_s = memo_s = 0.0
    with tempfile.TemporaryDirectory() as tmp:
        manager = RecoveryManager(tmp, WriteAheadLog(Path(tmp) / "wal.jsonl"))
        for commit in range(commits):
            # A step changes a handful of indexes: builds complete,
            # killed builds checkpoint, data updates invalidate.
            for _ in range(mutations):
                index = indexes[int(rng.integers(len(indexes)))]
                pid = int(rng.integers(len(index.partitions)))
                kind = int(rng.integers(3))
                if kind == 0:
                    index.mark_built(pid, 60.0 * commit)
                elif kind == 1:
                    index.record_checkpoint(pid, 5.0)
                else:
                    index.invalidate_partition(pid)
            t0 = time.perf_counter()
            expected = oracle_catalog_digest(catalog)
            t1 = time.perf_counter()
            actual = manager._catalog_digest(service)
            t2 = time.perf_counter()
            assert actual == expected
            naive_s += t1 - t0
            memo_s += t2 - t1
        manager.close()
    return {
        "indexes": len(indexes),
        "commits": commits,
        "mutations_per_commit": mutations,
        "naive_ops_per_s": commits / naive_s,
        "memoised_ops_per_s": commits / memo_s,
        "speedup": naive_s / memo_s,
    }


# ----------------------------------------------------------------------
# Part 5: recovery snapshot payload (>= 1.5x required)
# ----------------------------------------------------------------------
def _obs_artifacts(obs) -> tuple[str, str, str]:
    return (obs.journal.to_jsonl(), obs.metrics.to_json(), trace_json(obs.tracer))


def _long_hooked_run(directory: str):
    """The hooked configuration run for 120 simulated minutes, after its
    last step: (manager, obs, service, state)."""
    # A full dump costs more as the obs lists grow, so the run is long
    # enough for them to outweigh the rest of the run, as on churn.
    config = replace(hooked_config(), total_time_s=120 * 60.0)
    manager = RecoveryManager.start(
        directory, config, strategy="gain", generator="phase",
        interleaver="online", obs_enabled=True,
    )
    obs = Observation.recording()
    service, events = prepare_run(
        Strategy.GAIN, config=config, interleaver="online", obs=obs,
        recovery=manager,
    )
    state = service.begin_run(events)
    while service.step(state):
        pass
    return manager, obs, service, state


def _bench_recovery_snapshot(rounds: int = 7):
    with tempfile.TemporaryDirectory() as tmp:
        manager, obs, service, state = _long_hooked_run(tmp)
        lists = obs_lists(obs)
        full_s = incremental_s = float("inf")
        for _ in range(rounds):
            t0 = time.perf_counter()
            full = manager._dumps(service, state, None)
            t1 = time.perf_counter()
            chunk = segment_chunk(lists, manager._obs_counts)
            payload = manager._dumps(service, state, lists)
            t2 = time.perf_counter()
            full_s = min(full_s, t1 - t0)
            incremental_s = min(incremental_s, t2 - t1)
        # Both payloads restore the same run: the detached one with its
        # lists rebuilt from the segment the run wrote plus the new chunk.
        chunks = read_chunks(Path(tmp) / SEGMENT_NAME, manager._segment_bytes)
        rebuilt = rebuild_obs_lists(
            [*chunks, chunk], tuple(len(entries) for entries in lists)
        )
        restored = pickle.loads(payload)["service"].obs
        for entries, entries_rebuilt in zip(obs_lists(restored), rebuilt):
            entries[:] = entries_rebuilt
        expected = _obs_artifacts(obs)
        assert _obs_artifacts(pickle.loads(full)["service"].obs) == expected
        assert _obs_artifacts(restored) == expected
        manager.close()
    return {
        "journal_events": len(lists[0]),
        "full_bytes": len(full),
        "incremental_bytes": len(chunk) + len(payload),
        "naive_ops_per_s": 1.0 / full_s,
        "incremental_ops_per_s": 1.0 / incremental_s,
        "speedup": full_s / incremental_s,
    }


# ----------------------------------------------------------------------
# Part 6: recovery snapshot handoff (>= 4x required)
# ----------------------------------------------------------------------
def _bench_recovery_snapshot_handoff(rounds: int = 7):
    # Two copies of the same seeded run, at the same boundaries: the
    # frozen synchronous writer snapshots one, the forked writer the
    # other. Each boundary adds one journal event and one chunk to its
    # copy, so the copies stay equal and so must the files.
    with tempfile.TemporaryDirectory() as sync_dir, tempfile.TemporaryDirectory() as fork_dir:
        sync = _long_hooked_run(sync_dir)
        fork = _long_hooked_run(fork_dir)
        sync_s = handoff_s = float("inf")
        for _ in range(rounds):
            manager, _, service, state = sync
            t0 = time.perf_counter()
            expected = oracle_sync_snapshot(manager, service, state, 0.0, Path(sync_dir))
            t1 = time.perf_counter()
            manager, _, service, state = fork
            t2 = time.perf_counter()
            manager._snapshot(service, state, 0.0)
            t3 = time.perf_counter()
            join_writer()
            published = snapshot_path(fork_dir, state.i).read_bytes()
            assert published == expected.read_bytes()
            sync_s = min(sync_s, t1 - t0)
            handoff_s = min(handoff_s, t3 - t2)
        for manager, *_ in (sync, fork):
            manager.close()
    return {
        "snapshot_bytes": len(published),
        "naive_ops_per_s": 1.0 / sync_s,
        "handoff_ops_per_s": 1.0 / handoff_s,
        "speedup": sync_s / handoff_s,
    }


# ----------------------------------------------------------------------
# Part 7: dataflow generation (>= 1.3x required)
# ----------------------------------------------------------------------
def _generate_dataflows(count: int) -> tuple[float, list, dict]:
    workload = build_workload(PAPER_PRICING, seed=7)
    apps = app_names()
    t0 = time.perf_counter()
    flows = [workload.next_dataflow(apps[i % len(apps)], 60.0 * i) for i in range(count)]
    elapsed = time.perf_counter() - t0
    return elapsed, flows, workload.rng.bit_generator.state


def _bench_dataflow_generation(monkeypatch, count: int = 300, pairs: int = 7):
    def batched():
        return _generate_dataflows(count)

    def naive():
        with monkeypatch.context() as patch:
            patch_oracle_draws(patch)
            return _generate_dataflows(count)

    naive_s, batched_s, speedups = [], [], []
    for pair in range(pairs):
        order = (batched, naive) if pair % 2 == 0 else (naive, batched)
        timed = {side: side() for side in order}
        (fast_s, fast_flows, fast_state), (slow_s, slow_flows, slow_state) = (
            timed[batched], timed[naive]
        )
        assert [fingerprint(f) for f in fast_flows] == [fingerprint(f) for f in slow_flows]
        assert fast_state == slow_state
        naive_s.append(slow_s)
        batched_s.append(fast_s)
        speedups.append(slow_s / fast_s)
    q1, median, q3 = (float(q) for q in np.percentile(speedups, [25, 50, 75]))
    return {
        "dataflows": count,
        "pairs": pairs,
        "naive_ms_per_dataflow": 1e3 * float(np.median(naive_s)) / count,
        "batched_ms_per_dataflow": 1e3 * float(np.median(batched_s)) / count,
        "naive_ops_per_s": count / float(np.median(naive_s)),
        "batched_ops_per_s": count / float(np.median(batched_s)),
        "speedup": median,
        "speedup_q1": q1,
        "speedup_q3": q3,
    }


def test_hotpath(benchmark, figure_metrics, monkeypatch):
    gain = _bench_gain_update()
    decision = _bench_gain_decision()
    tuner_decision = _bench_tuner_decision()
    skyline = _bench_skyline()
    builds = _bench_skyline_builds()
    commit = _bench_recovery_commit()
    snapshot = _bench_recovery_snapshot()
    handoff = _bench_recovery_snapshot_handoff()
    generation = _bench_dataflow_generation(monkeypatch)
    e2e = benchmark.pedantic(lambda: _bench_e2e(monkeypatch), rounds=1, iterations=1)

    print_header("Hot-path performance: naive oracle vs optimised layer")
    print_rows(
        ["component", "naive ops/s", "optimised ops/s", "speedup"],
        [
            ["gain window update", f"{gain['naive_ops_per_s']:.1f}",
             f"{gain['incremental_ops_per_s']:.1f}", f"{gain['speedup']:.1f}x"],
            ["gain decision", f"{decision['naive_ops_per_s']:.1f}",
             f"{decision['batched_ops_per_s']:.1f}", f"{decision['speedup']:.1f}x"],
            ["tuner decision", f"{tuner_decision['naive_ops_per_s']:.1f}",
             f"{tuner_decision['memoised_ops_per_s']:.1f}",
             f"{tuner_decision['speedup']:.1f}x"],
            ["skyline schedule", f"{skyline['naive_ops_per_s']:.2f}",
             f"{skyline['optimised_ops_per_s']:.2f}", f"{skyline['speedup']:.1f}x"],
            ["skyline with builds", f"{builds['naive_ops_per_s']:.2f}",
             f"{builds['optimised_ops_per_s']:.2f}", f"{builds['speedup']:.1f}x"],
            ["recovery commit", f"{commit['naive_ops_per_s']:.1f}",
             f"{commit['memoised_ops_per_s']:.1f}", f"{commit['speedup']:.1f}x"],
            ["recovery snapshot", f"{snapshot['naive_ops_per_s']:.1f}",
             f"{snapshot['incremental_ops_per_s']:.1f}", f"{snapshot['speedup']:.1f}x"],
            ["snapshot handoff", f"{handoff['naive_ops_per_s']:.1f}",
             f"{handoff['handoff_ops_per_s']:.1f}", f"{handoff['speedup']:.1f}x"],
            ["dataflow generation", f"{generation['naive_ops_per_s']:.1f}",
             f"{generation['batched_ops_per_s']:.1f}",
             f"{generation['speedup']:.1f}x ({generation['speedup_q1']:.1f}-"
             f"{generation['speedup_q3']:.1f})"],
            ["full sim day (30 q)", f"{e2e['naive_days_per_hour']:.1f}/h",
             f"{e2e['optimised_days_per_hour']:.1f}/h",
             f"{e2e['speedup']:.1f}x ({e2e['speedup_q1']:.1f}-{e2e['speedup_q3']:.1f})"],
        ],
        widths=[22, 16, 18, 10],
    )

    figure_metrics["artifact_stem"] = "hotpath"  # -> BENCH_hotpath.json
    figure_metrics["gain_window_update"] = gain
    figure_metrics["gain_decision"] = decision
    figure_metrics["tuner_decision"] = tuner_decision
    figure_metrics["skyline_schedule"] = skyline
    figure_metrics["skyline_schedule_builds"] = builds
    figure_metrics["recovery_commit"] = commit
    figure_metrics["recovery_snapshot"] = snapshot
    figure_metrics["recovery_snapshot_handoff"] = handoff
    figure_metrics["dataflow_generation"] = generation
    figure_metrics["full_sim_day"] = e2e
    benchmark.extra_info.update(
        gain_speedup=gain["speedup"],
        gain_decision_speedup=decision["speedup"],
        tuner_decision_speedup=tuner_decision["speedup"],
        skyline_speedup=skyline["speedup"],
        skyline_builds_speedup=builds["speedup"],
        recovery_commit_speedup=commit["speedup"],
        recovery_snapshot_speedup=snapshot["speedup"],
        recovery_snapshot_handoff_speedup=handoff["speedup"],
        dataflow_generation_speedup=generation["speedup"],
        e2e_speedup=e2e["speedup"],
    )

    # Acceptance floors (the measured margins are far larger; these trip
    # only on a genuine hot-path regression).
    assert gain["speedup"] >= 3.0
    assert decision["speedup"] >= 1.3
    assert tuner_decision["speedup"] >= 1.6
    assert skyline["speedup"] >= 5.0
    assert builds["speedup"] >= 30.0
    assert commit["speedup"] >= 5.0
    assert snapshot["speedup"] >= 1.5
    assert handoff["speedup"] >= 4.0
    assert generation["speedup"] >= 1.3
    assert e2e["speedup"] >= 1.5
