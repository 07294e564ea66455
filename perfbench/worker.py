"""One pass of one workload, in a fresh interpreter.

Invoked by ``run.py`` as ``python3 perfbench/worker.py '<json spec>'``;
prints one JSON object as its last line of output. Modes:

* ``setup``  — time ``import repro`` plus ``prepare_run`` and
  ``begin_run`` (and, on ``churn``, ``Observation.recording()`` and
  ``RecoveryManager.start`` with its base snapshot), nothing else.
* ``timed``  — run every episode and time each step. After each step,
  outside every timing, ``InvariantMonitor.check`` verifies the state.
* ``verify`` — as ``timed``, and also count calls per layer: the
  untraced reference of a traced run.
* ``traced`` — run every episode with a span around each layer.
"""

from __future__ import annotations

import gzip
import hashlib
import json
import os
import resource
import shutil
import sys
import tempfile
import time

_T_START = time.perf_counter()

from workloads import WORKLOADS, Workload  # noqa: E402

#: Invariant rules of repro.recovery.invariants, in report order.
RULES = (
    "billing-conservation",
    "billing-monotone",
    "catalog-storage",
    "history-monotone",
    "history-window",
    "schedule-overlap",
    "money-conservation",
)


def _config(workload: Workload, workload_seed: int):
    from repro.core.config import ExperimentConfig

    return ExperimentConfig(
        total_time_s=workload.horizon_quanta * 60.0,
        poisson_mean_s=workload.mean_interarrival_s,
        seed=workload_seed,
        **workload.overrides,
    )


def _arrivals(workload: Workload, config, arrival_seed: int):
    """The client's arrival stream: the same generators prepare_run uses."""
    import numpy as np

    from repro import phase_schedule, random_schedule
    from repro.dataflow.client import PAPER_PHASES, TOTAL_TIME_S, ArrivalEvent, app_names

    rng = np.random.default_rng(arrival_seed)
    if workload.generator == "phase":
        fraction = config.total_time_s / TOTAL_TIME_S
        phases = tuple((app, d * fraction) for app, d in PAPER_PHASES)
        return phase_schedule(
            rng, phases=phases, mean_interarrival_s=config.poisson_mean_s
        )
    events = random_schedule(
        rng, horizon_s=config.total_time_s, mean_interarrival_s=config.poisson_mean_s
    )
    # Each block of consecutive arrivals holds every app once, in a
    # random order: the seed moves the order and the times, not the
    # app mix, which alone swings cost and makespan by 25% a run.
    apps = app_names()
    order = [apps[i] for _ in range(0, len(events), len(apps))
             for i in rng.permutation(len(apps))]
    return [ArrivalEvent(time=e.time, app=app) for e, app in zip(events, order)]


def _start(workload: Workload, config, run_dir: str):
    """``prepare_run`` with the workload's obs and recovery hooks."""
    from repro import Observation, Strategy, prepare_run

    obs = Observation.recording() if workload.record_obs else None
    recovery = None
    if workload.recovery:
        from repro.recovery.manager import RecoveryManager

        # Shipped flush policy: WAL fsync off, snapshots fsync'd.
        recovery = RecoveryManager.start(
            os.path.join(run_dir, "recover"),
            config,
            strategy=Strategy.GAIN.value,
            generator=workload.generator,
            interleaver=workload.interleaver,
            obs_enabled=obs is not None,
        )
    service, _events = prepare_run(
        Strategy.GAIN,
        generator=workload.generator,
        config=config,
        interleaver=workload.interleaver,
        obs=obs,
        recovery=recovery,
    )
    return service


def _serialise(service, run_dir: str) -> int:
    """Write the obs artifacts as ``repro run --*-out`` would."""
    from repro.obs import trace_json

    obs = service.obs
    total = 0
    for name, payload in (
        ("events.jsonl", obs.journal.to_jsonl()),
        ("metrics.json", obs.metrics.to_json()),
        ("trace.json", trace_json(obs.tracer)),
    ):
        with open(os.path.join(run_dir, name), "w") as fh:
            fh.write(payload)
        total += len(payload)
    return total


def _digest(metrics, service) -> str:
    """Outcome digest: per-dataflow timing, money and builds, plus storage."""
    record = [
        [o.name, o.started_at, o.finished_at, o.money_quanta,
         o.builds_completed, o.builds_killed]
        for o in metrics.outcomes
    ]
    record.append([
        metrics.storage_dollars(), metrics.indexes_created, metrics.indexes_deleted,
        service.storage.bytes_uploaded_mb,
    ])
    return hashlib.sha256(json.dumps(record).encode()).hexdigest()[:16]


def _program_counts(service, metrics) -> dict[str, int]:
    """Counters the program keeps itself; they must repeat exactly."""
    from repro.interleave.knapsack import knapsack_cache_stats

    memo = knapsack_cache_stats()
    topo = service.scheduler.topo_stats
    cost = service.tuner.gain_model.cost_stats
    counts = {
        "knapsack.memo_hits": memo.hits,
        "knapsack.memo_misses": memo.misses,
        "skyline.topo_hits": topo.hits,
        "skyline.topo_misses": topo.misses,
        "gain.cost_hits": cost.hits,
        "gain.cost_misses": cost.misses,
        "builds.completed": sum(o.builds_completed for o in metrics.outcomes),
        "builds.killed": sum(o.builds_killed for o in metrics.outcomes),
        "storage.put_failures": metrics.storage_put_failures,
        "storage.delete_failures": metrics.storage_delete_failures,
        "simulator.operator_retries": metrics.operator_retries,
        "simulator.retries_exhausted": metrics.retries_exhausted,
        "faults.injected": metrics.total_faults_injected,
        "indexes.created": metrics.indexes_created,
        "indexes.deleted": metrics.indexes_deleted,
    }
    if service.pool is not None:
        counts["pool.created"] = service.pool.stats.containers_created
        counts["pool.reused"] = service.pool.stats.containers_reused
    if service.obs.enabled:
        counts["obs.events"] = len(service.obs.journal)
    if service.recovery.enabled:
        counts["wal.records"] = service.recovery.wal.count
        counts["wal.bytes"] = os.path.getsize(service.recovery.wal.path)
    return counts


def reference_s() -> float:
    """Time a fixed pure-Python task that does not touch ``repro``.

    The host's speed drifts by up to 2x within minutes (shared cores), so
    every wall time is reported next to this task's time, sampled in the
    same process right after the timed work (``run.py`` normalises).
    """
    t0 = time.perf_counter()
    table: dict[int, float] = {}
    acc = 0.0
    for i in range(36_000):
        key = i % 97
        table[key] = table.get(key, 0.0) + i * 0.5
        acc += (i * 31 % 7) / 3.0
    sorted(table.values())
    return time.perf_counter() - t0


def _merge(total: dict, part: dict) -> None:
    for key, value in part.items():
        total[key] = total.get(key, 0) + value


def run_setup(spec: dict) -> dict:
    workload = WORKLOADS[spec["workload"]]
    scratch = tempfile.mkdtemp(dir=spec["tmp"])
    try:
        t0 = time.perf_counter()
        import repro  # noqa: F401

        config = _config(workload, spec["workload_seed"])
        service = _start(workload, config, scratch)
        prepared_s = time.perf_counter() - t0
        # Generating the arrivals is the client's work, not the service's.
        arrivals = _arrivals(workload, config, spec["seed"])
        t_begin = time.perf_counter()
        service.begin_run(arrivals)
        setup_s = prepared_s + time.perf_counter() - t_begin
        refs = [reference_s() for _ in range(5)]
        if service.recovery.enabled:
            service.recovery.close()
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return {"setup_s": setup_s, "refs": refs}


def run_pass(spec: dict) -> dict:
    mode = spec["mode"]
    workload = WORKLOADS[spec["workload"]]
    t0 = time.perf_counter()
    import repro  # noqa: F401
    from repro.experiments import derive_seed
    from repro.recovery.invariants import InvariantMonitor

    import_s = time.perf_counter() - t0
    checked = mode in ("timed", "verify")
    rec = None
    if mode in ("verify", "traced"):
        import tracing

        rec = tracing.Recorder(timed=mode == "traced")
        tracing.install(rec)
    config = _config(workload, spec["workload_seed"])
    episodes = []
    counts: dict[str, int] = {}
    violations = {rule: 0 for rule in RULES}
    failed_steps = 0
    exhausted_steps = 0
    raised = []
    for k in range(spec["episodes"]):
        arrivals = _arrivals(workload, config, derive_seed(spec["seed"], k))
        run_dir = tempfile.mkdtemp(dir=spec["tmp"])
        try:
            t_prep = time.perf_counter()
            service = _start(workload, config, run_dir)
            state = service.begin_run(arrivals)
            prepare_s = time.perf_counter() - t_prep
            monitor = InvariantMonitor(service) if checked else None
            steps: list[float] = []
            refs = [reference_s()] if checked else []
            excluded = 0.0
            t_first = time.perf_counter()
            while True:
                if rec is not None:
                    rec.request = (k, len(steps))
                exhausted = state.metrics.retries_exhausted
                t_step = time.perf_counter()
                try:
                    more = service.step(state)
                except Exception as exc:  # reported; the episode is lost
                    raised.append(f"episode {k} step {len(steps)}: {exc!r}")
                    break
                t_done = time.perf_counter()
                if not more:
                    break
                steps.append(t_done - t_step)
                if monitor is not None:
                    last = state.metrics.outcomes[-1]
                    found = monitor.check(state, last.started_at)
                    for rule in {v.name for v in found}:
                        violations[rule] = violations.get(rule, 0) + 1
                    ran_out = state.metrics.retries_exhausted > exhausted
                    exhausted_steps += ran_out
                    if found or ran_out:
                        failed_steps += 1
                    refs.append(reference_s())
                    excluded += time.perf_counter() - t_done
            if raised:
                break
            if rec is not None:
                rec.request = (k, -1)
            metrics = service.finish_run(state)
            artifact_bytes = 0
            if service.obs.enabled:
                if rec is not None:
                    artifact_bytes = rec.run_root("obs", lambda: _serialise(service, run_dir))
                else:
                    artifact_bytes = _serialise(service, run_dir)
            window_s = time.perf_counter() - t_first - excluded
            if service.recovery.enabled:
                service.recovery.close()
            episode_counts = _program_counts(service, metrics)
            episode_counts["obs.artifact_bytes"] = artifact_bytes
            _merge(counts, episode_counts)
            finished = metrics.finished()
            episodes.append({
                "arrival_seed": derive_seed(spec["seed"], k),
                "digest": _digest(metrics, service),
                "steps": steps,
                "refs": refs,
                "window_s": window_s,
                "prepare_s": prepare_s,
                "finished": len(finished),
                "dollars": metrics.total_dollars(),
                "makespan_q_sum": sum(o.makespan_quanta for o in finished),
                "queue_delay_q": [o.queue_delay_s / 60.0 for o in metrics.outcomes],
            })
        finally:
            shutil.rmtree(run_dir, ignore_errors=True)
    result = {
        "mode": mode,
        "import_s": import_s,
        "episodes": episodes,
        "counts": counts,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "raised": raised,
        "failed_steps": failed_steps,
        "exhausted_steps": exhausted_steps,
    }
    if checked:
        result["violations"] = violations
    if rec is not None:
        _merge(counts, rec.counts)
        counts.update({f"{layer}.calls": n for layer, n in rec.calls.items()})
        counts.update({f"{layer}.raised": n for layer, n in rec.raised.items()})
        result["samples"] = rec.samples
        if rec.timed:
            result["self_s"] = rec.self_s
            result["root_s"] = rec.root_s
            result["spans"] = len(rec.spans)
            _write_spans(rec, spec)
    return result


def _write_spans(rec, spec: dict) -> None:
    """Spans stay in memory during the run and are written out at its end."""
    path = spec.get("spans_out")
    if not path:
        return
    with gzip.open(path, "wt") as fh:
        fh.write("id,layer,start,end,parent,episode,step\n")
        for span_id, layer, start, end, parent, (episode, step) in rec.spans:
            fh.write(f"{span_id},{layer},{start!r},{end!r},{parent},{episode},{step}\n")


def main() -> None:
    spec = json.loads(sys.argv[1])
    sys.path.insert(0, os.path.join(spec["root"], "src"))
    if spec["mode"] == "setup":
        result = run_setup(spec)
    else:
        result = run_pass(spec)
    result["process_s"] = time.perf_counter() - _T_START
    print(json.dumps(result))


if __name__ == "__main__":
    main()
