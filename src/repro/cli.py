"""Command-line interface: run the paper's experiments from a shell.

Examples::

    python -m repro run --strategy gain --generator phase
    python -m repro compare --generator phase --horizon-quanta 60
    python -m repro schedule --app cybershake
    python -m repro table5
    python -m repro table6 --rows 150000
"""

from __future__ import annotations

import argparse
import logging
import sys
from dataclasses import replace

from repro.cloud.pricing import PAPER_PRICING
from repro.core.config import default_config
from repro.core.service import Strategy

#: argparse dest -> ExperimentConfig field for the fault-injection knobs.
_FAULT_OVERRIDES = {
    "op_failure_rate": "operator_failure_rate",
    "crash_rate": "container_crash_rate",
    "storage_failure_rate": None,  # expands to put + delete rates
    "straggler_rate": "straggler_rate",
    "checkpoint_interval": "checkpoint_interval_s",
    "retry_max_attempts": "retry_max_attempts",
}

def _config(args) -> "ExperimentConfig":  # noqa: F821
    config = default_config()
    overrides = {}
    if getattr(args, "horizon_quanta", None) is not None:
        overrides["total_time_s"] = args.horizon_quanta * 60.0
    if getattr(args, "seed", None) is not None:
        overrides["seed"] = args.seed
    for dest, field in _FAULT_OVERRIDES.items():
        value = getattr(args, dest, None)
        if value is None:
            continue
        if field is not None:
            overrides[field] = value
        else:
            overrides["storage_put_failure_rate"] = value
            overrides["storage_delete_failure_rate"] = value
    if getattr(args, "roi_ledger", False):
        overrides["roi_ledger"] = True
    if getattr(args, "watchdog_rollback", False):
        overrides["watchdog_rollback"] = True
    if getattr(args, "watchdog_window_quanta", None) is not None:
        overrides["watchdog_window_quanta"] = args.watchdog_window_quanta
    if getattr(args, "watchdog_hysteresis", None) is not None:
        overrides["watchdog_hysteresis"] = args.watchdog_hysteresis
    return replace(config, **overrides) if overrides else config


def _print_metrics(label: str, metrics) -> None:
    print(
        f"{label:<18} finished={metrics.num_finished:<4d} "
        f"cost/dataflow={metrics.cost_per_dataflow_quanta():7.2f} quanta  "
        f"makespan={metrics.avg_makespan_quanta():5.2f} quanta  "
        f"killed={metrics.killed_percentage():4.1f}%  "
        f"storage=${metrics.storage_dollars():.2f}"
    )
    if metrics.total_faults_injected:
        print(
            f"{'':<18} faults={metrics.total_faults_injected:<5d} "
            f"retries={metrics.operator_retries:<4d} "
            f"recovered={metrics.operators_recovered:<4d} "
            f"crashes={metrics.containers_crashed:<4d} "
            f"builds_failed={metrics.builds_failed:<4d} "
            f"checkpoints={metrics.checkpoints_recorded:<4d} "
            f"resumes={metrics.checkpoint_resumes:<4d} "
            f"degraded={metrics.degraded_builds}"
        )


def _print_obs_summary(metrics_json: str | None, journal_jsonl: str | None) -> None:
    """Print the observability roll-up from the serialised artifacts.

    Repetitions may have run in worker processes, so the summary is
    reconstructed from the artifact strings (the exact bytes written to
    disk) rather than from a live observation object.
    """
    import json

    from repro.report import obs_summary

    snapshot = json.loads(metrics_json) if metrics_json else {}
    counts: dict[str, int] = {}
    for line in (journal_jsonl or "").splitlines():
        event = str(json.loads(line)["event"])
        counts[event] = counts.get(event, 0) + 1
    print()
    print(obs_summary(snapshot, {name: counts[name] for name in sorted(counts)}))


def _rep_path(path: str, repetition: int, repeats: int) -> str:
    """Artifact path of one repetition (suffix only when repeating)."""
    if repeats <= 1:
        return path
    from pathlib import Path

    p = Path(path)
    return str(p.with_name(f"{p.stem}-rep{repetition}{p.suffix}"))


def _write_artifacts(
    args,
    trace: str | None,
    journal: str | None,
    metrics: str | None,
    rep: int = 0,
    repeats: int = 1,
) -> None:
    """Write the obs artifacts the run flags ask for, then print the
    roll-up when the run recorded observations."""
    from pathlib import Path

    for out, payload, what in (
        (args.trace_out, trace,
         "trace written to {} (load in ui.perfetto.dev or chrome://tracing)"),
        (args.events_out, journal, "decision journal written to {}"),
        (args.metrics_out, metrics, "metrics snapshot written to {}"),
    ):
        if out and payload is not None:
            path = Path(_rep_path(out, rep, repeats))
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(payload)
            print(what.format(path))
    if metrics is not None:
        _print_obs_summary(metrics, journal)


def cmd_run(args) -> int:
    """Run one (or several) experiments, optionally across workers.

    ``--repeats R`` runs R repetitions with independently derived seeds
    (repetition 0 keeps the root seed); ``--workers N`` fans them out
    over spawned processes. Results and artifacts are merged in
    repetition order and are byte-identical to a serial run of the same
    repetitions — worker count is a throughput knob, never a semantic
    one.
    """
    from repro.experiments import ExperimentTask, derive_seed, run_tasks

    repeats = max(1, args.repeats)
    if args.resume:
        if args.recover_dir:
            raise ValueError("--resume cannot be combined with --recover-dir")
        if repeats > 1 or args.workers > 1:
            raise ValueError(
                "--resume continues a single run; drop --repeats/--workers"
            )
        return _cmd_resume(args)
    if args.recover_dir and (repeats > 1 or args.workers > 1):
        raise ValueError(
            "--recover-dir journals a single run; drop --repeats/--workers"
        )
    strategy = Strategy(args.strategy)
    config = _config(args)
    record_obs = bool(args.trace_out or args.events_out or args.metrics_out)
    tasks = [
        ExperimentTask(
            strategy=strategy,
            generator=args.generator,
            seed=derive_seed(config.seed, rep),
            config=config,
            interleaver=args.interleaver,
            record_obs=record_obs,
            recovery_dir=args.recover_dir,
            snapshot_every=args.snapshot_every,
        )
        for rep in range(repeats)
    ]
    results = run_tasks(tasks, workers=max(1, args.workers))
    for rep, result in enumerate(results):
        label = strategy.value if repeats == 1 else f"{strategy.value}[rep{rep}]"
        _print_metrics(label, result.metrics)
        _write_artifacts(
            args, result.trace_json, result.journal_jsonl, result.metrics_json,
            rep, repeats,
        )
    return 0


def _cmd_resume(args) -> int:
    """Continue a crashed ``--recover-dir`` run to completion.

    Workload flags are ignored — strategy, generator and config come
    from the recovery directory's manifest. Output (report lines and
    artifact files) is byte-identical to the uninterrupted run, which is
    the property the chaos sweep asserts.
    """
    from repro import resume_run
    from repro.obs import trace_json

    metrics, service = resume_run(args.resume)
    _print_metrics(service.strategy.value, metrics)
    obs = service.obs
    if obs.enabled:
        _write_artifacts(
            args, trace_json(obs.tracer), obs.journal.to_jsonl(), obs.metrics.to_json()
        )
    return 0


def _print_invariant_failure(exc) -> None:
    """The chaos failure report: violations plus the machine-readable
    reproduction context carried by the InvariantError."""
    import json

    print(f"FAIL: {len(exc.violations)} invariant violation(s)")
    for violation in exc.violations:
        print(f"  {violation}")
    if exc.context:
        print(f"  context: {json.dumps(exc.context, sort_keys=True)}")


def _cmd_explore(args) -> int:
    """The ``chaos explore`` mode: schedule-space exploration / replay."""
    from repro.explore import (
        build_scenario,
        explore,
        invariant_error,
        load_replay,
        run_replay,
        save_replay,
    )

    if args.replay:
        replay = load_replay(args.replay)
        result = run_replay(replay)
        print(
            f"replay: scenario={replay.scenario.name} seed="
            f"{replay.scenario.seed} trace={len(replay.schedule)} entries, "
            f"{len(result.steps)} micro-steps"
        )
        for violation in result.violations:
            print(f"  {violation}")
        if result.reproduced:
            print("reproduced: expected violations fired byte-identically")
            return 0
        print("FAIL: replay diverged from the recorded violations")
        for violation in result.expected:
            print(f"  expected {violation}")
        return 1

    scenario = build_scenario(
        args.scenario, seed=args.seed, horizon_quanta=args.horizon_quanta
    )
    report = explore(
        scenario,
        args.explore_strategy,
        budget=args.budget,
        depth=args.depth,
    )
    names = sorted(report.violation_names())
    print(
        f"explore: scenario={report.scenario} mode={report.mode} "
        f"schedules={report.schedules} distinct={report.distinct_orderings} "
        f"choices={report.choices} pruned={report.pruned} "
        f"checks={report.checks} failing={len(report.violations)}"
        + (" (truncated)" if report.truncated else "")
    )
    found = report.minimized or (
        report.violations[0] if report.violations else None
    )
    if found is not None:
        label = "minimized" if report.minimized else "first failing"
        print(f"{label} trace ({len(found.trace)} choices):")
        for site, picked in found.trace:
            print(f"  {site} -> {picked}")
        if args.save_replay:
            save_replay(
                args.save_replay, scenario, list(found.trace),
                list(found.violations),
            )
            print(f"replay file written to {args.save_replay}")
    if args.expect_violation:
        if args.expect_violation in names:
            print(f"found expected violation {args.expect_violation!r}")
            return 0
        print(
            f"FAIL: expected violation {args.expect_violation!r} not found "
            f"(found: {', '.join(names) or 'none'})"
        )
        return 1
    if report.violations:
        _print_invariant_failure(invariant_error(report))
        return 1
    print("no invariant violations found")
    return 0


def cmd_chaos(args) -> int:
    """Run the crash-recovery chaos harness (sweep, soak or explore)."""
    from repro.recovery.chaos import run_chaos_soak, run_crash_sweep
    from repro.recovery.invariants import InvariantError

    if args.mode == "explore":
        return _cmd_explore(args)
    if not args.workdir:
        raise ValueError(f"--workdir is required for chaos {args.mode}")
    if args.mode == "sweep":
        report = run_crash_sweep(
            args.workdir,
            seed=args.seed,
            strategy=args.strategy,
            generator=args.generator,
            horizon_quanta=args.horizon_quanta,
            snapshot_every=args.snapshot_every,
            wal_stride=args.wal_stride,
            torn_samples=args.torn_samples,
        )
        print(
            f"sweep: {len(report.cases)} cases ({report.crashes} crashed, "
            f"{report.wal_records} WAL records), "
            f"{len(report.failures)} failures"
        )
        for case in report.failures:
            print(f"  FAIL {case.label}: {case.detail}")
        return 0 if report.ok else 1
    try:
        report = run_chaos_soak(
            args.workdir,
            seed=args.seed,
            strategy=args.strategy,
            generator=args.generator,
            horizon_quanta=args.horizon_quanta,
            crashes=args.crashes,
            snapshot_every=args.snapshot_every,
        )
    except InvariantError as exc:
        _print_invariant_failure(exc)
        return 1
    print(
        f"soak: {report.crashes_hit}/{report.crashes_planned} crashes, "
        f"{report.resumes} resumes ({report.cold_resumes} cold), "
        f"{report.checks} invariant checks, identical={report.identical}"
    )
    return 0


#: The artifact files a run directory may contain, in report order.
_OBS_ARTIFACTS = ("trace.json", "events.jsonl", "metrics.json")


def _cmd_obs_roi(args) -> int:
    """Reconstruct the per-index ROI ledger from a decision journal."""
    import json
    from pathlib import Path

    from repro.report import roi_table

    text = Path(args.events).read_text()
    statements: dict[str, dict] = {}
    probes: dict[str, dict] = {}
    ledger_events = False
    for line in text.splitlines():
        record = json.loads(line)
        event = record.get("event")
        if event == "index_roi":
            ledger_events = True
            statements[str(record["index"])] = record
        elif event == "index_probe":
            name = str(record["index"])
            agg = probes.setdefault(
                name,
                {"index": name, "live": True, "probes": 0,
                 "realized_seconds": 0.0, "realized_dollars": 0.0,
                 "net_dollars": 0.0},
            )
            agg["probes"] += 1
            agg["realized_seconds"] += float(record.get("saved_seconds", 0.0))
            agg["realized_dollars"] += float(record.get("saved_dollars", 0.0))
            agg["net_dollars"] = agg["realized_dollars"]
    rows = [statements[name] for name in sorted(statements)]
    if not rows:
        # No ledger ran: fall back to what the probe events alone prove
        # (realized benefit only — costs need index_roi statements).
        rows = [probes[name] for name in sorted(probes)]
    if args.json:
        payload = {"ledger_events": ledger_events, "indexes": rows}
        print(json.dumps(payload, sort_keys=True, separators=(",", ":")))
        return 0
    if not ledger_events and rows:
        print("note: no index_roi events; showing probe-derived realized "
              "benefit only (run with --roi-ledger for full accounting)")
    print(roi_table(rows))
    return 0


def _cmd_obs_diff(args) -> int:
    """Structurally diff two runs' observability artifacts."""
    from pathlib import Path

    from repro.obs import artifact_divergence

    a, b = Path(args.a), Path(args.b)
    if a.is_dir() != b.is_dir():
        raise ValueError("obs diff compares two files or two directories")
    pairs: list[tuple[str, Path, Path]]
    if a.is_dir():
        names = [n for n in _OBS_ARTIFACTS if (a / n).exists() or (b / n).exists()]
        if not names:
            raise ValueError(f"no known artifacts in {a} or {b}")
        pairs = [(n, a / n, b / n) for n in names]
    else:
        pairs = [(a.name, a, b)]
    diverged = 0
    for name, pa, pb in pairs:
        if not pa.exists() or not pb.exists():
            missing = pa if not pa.exists() else pb
            print(f"{name}: only present on one side (missing {missing})")
            diverged += 1
            continue
        detail = artifact_divergence(name, pa.read_bytes(), pb.read_bytes())
        if detail is None:
            print(f"{name}: identical")
        else:
            print(detail)
            diverged += 1
    return 1 if diverged else 0


def _cmd_obs_top(args) -> int:
    """Top-k spans (by total duration) and counters (by value)."""
    import json
    from pathlib import Path

    if not args.metrics and not args.trace:
        raise ValueError("obs top needs --metrics and/or --trace")
    k = max(1, args.k)
    if args.trace:
        trace = json.loads(Path(args.trace).read_text())
        totals: dict[str, list[float]] = {}
        for event in trace.get("traceEvents", []):
            if event.get("ph") != "X":
                continue
            entry = totals.setdefault(str(event["name"]), [0.0, 0.0])
            entry[0] += float(event.get("dur", 0.0)) / 1e6
            entry[1] += 1
        ranked = sorted(totals.items(), key=lambda kv: (-kv[1][0], kv[0]))[:k]
        print(f"top {k} spans by total duration:")
        for name, (total, count) in ranked:
            print(f"  {name:<40} {total:>12.1f}s  n={int(count)}")
    if args.metrics:
        snapshot = json.loads(Path(args.metrics).read_text())
        counters = snapshot.get("counters", {})
        ranked2 = sorted(counters.items(), key=lambda kv: (-kv[1], kv[0]))[:k]
        print(f"top {k} counters by value:")
        for name, value in ranked2:
            print(f"  {name:<40} {value:>12.0f}")
    return 0


def cmd_obs(args) -> int:
    """Offline analysis of recorded observability artifacts."""
    if args.mode == "roi":
        if not args.events:
            raise ValueError("obs roi needs --events PATH")
        return _cmd_obs_roi(args)
    if args.mode == "diff":
        if not args.a or not args.b:
            raise ValueError("obs diff needs two run directories or files")
        return _cmd_obs_diff(args)
    return _cmd_obs_top(args)


def cmd_compare(args) -> int:
    """Run all four strategies and print the Figure 12-style table."""
    from repro import run_experiment
    from repro.report import bar_chart, comparison_table, metrics_row

    print(f"generator={args.generator}, horizon="
          f"{_config(args).total_time_s / 60:.0f} quanta")
    rows = []
    for strategy in (Strategy.NO_INDEX, Strategy.RANDOM,
                     Strategy.GAIN_NO_DELETE, Strategy.GAIN):
        metrics = run_experiment(
            strategy, generator=args.generator, config=_config(args)
        )
        rows.append(metrics_row(strategy.value, metrics))
    print()
    print(comparison_table(rows))
    print("\ndataflows finished:")
    print(bar_chart([(r.label, float(r.finished)) for r in rows]))
    print("\ncost per dataflow (quanta):")
    print(bar_chart([(r.label, r.cost_per_dataflow_quanta) for r in rows], unit="q"))
    return 0


def cmd_schedule(args) -> int:
    """Print the schedule skyline of one generated dataflow."""
    from repro.dataflow.client import build_workload
    from repro.scheduling.skyline import SkylineScheduler

    config = _config(args)
    workload = build_workload(config.pricing, seed=config.seed)
    flow = workload.next_dataflow(args.app, issued_at=0.0)
    scheduler = SkylineScheduler(
        PAPER_PRICING, max_skyline=args.skyline, max_containers=args.containers
    )
    print(f"{flow.name}: {len(flow)} operators, "
          f"critical path {flow.critical_path():.0f} s")
    for schedule in scheduler.schedule(flow):
        print(f"  time={schedule.makespan_quanta():6.2f} quanta  "
              f"money={schedule.money_quanta():4d} quanta  "
              f"containers={len(schedule.containers_used()):3d}  "
              f"idle={schedule.fragmentation_quanta():6.2f} quanta")
    return 0


def cmd_table5(args) -> int:
    """Reproduce Table 5 (index sizes on lineitem)."""
    from repro.data.index_model import IndexCostModel, IndexSpec
    from repro.data.tpch import TABLE5_COLUMNS, lineitem_table

    table = lineitem_table(scale=args.scale)
    model = IndexCostModel(PAPER_PRICING)
    table_mb = table.size_mb()
    print(f"lineitem scale {args.scale}: {table.num_records:,} rows, {table_mb:.0f} MB")
    for column in TABLE5_COLUMNS:
        size = model.index_size_mb(table, IndexSpec("lineitem", (column,)))
        print(f"  {column:<14} {size:8.2f} MB  {100 * size / table_mb:6.2f} %")
    return 0


def cmd_table6(args) -> int:
    """Reproduce Table 6 (index speedups on the micro engine)."""
    from repro.engine.queries import measure_table6_speedups

    results = measure_table6_speedups(num_rows=args.rows)
    for key in ("order_by", "range_large", "range_small", "lookup"):
        timing = results[key]
        print(f"  {timing.query:<22} {timing.no_index_seconds * 1e3:9.2f} ms -> "
              f"{timing.index_seconds * 1e3:9.3f} ms   {timing.speedup:8.1f}x")
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The repro argument parser (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Automated index management for dataflow engines "
                    "(EDBT 2020 reproduction)",
    )
    parser.add_argument(
        "--log-level", default="warning",
        choices=["debug", "info", "warning", "error"],
        help="structured-logging verbosity of the core/faults modules",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_fault_args(p) -> None:
        p.add_argument("--op-failure-rate", type=float, default=None,
                       help="per-operator transient failure probability")
        p.add_argument("--crash-rate", type=float, default=None,
                       help="per-operator container crash/preemption probability")
        p.add_argument("--storage-failure-rate", type=float, default=None,
                       help="storage put/delete loss probability")
        p.add_argument("--straggler-rate", type=float, default=None,
                       help="per-operator straggler probability")
        p.add_argument("--checkpoint-interval", type=float, default=None,
                       help="build checkpoint interval in seconds (0 = off)")
        p.add_argument("--retry-max-attempts", type=int, default=None,
                       help="retry budget per dataflow operator")

    run_p = sub.add_parser("run", help="run one service experiment")
    run_p.add_argument("--strategy", choices=[s.value for s in Strategy],
                       default="gain")
    run_p.add_argument("--generator", choices=["phase", "random"], default="phase")
    run_p.add_argument("--interleaver", choices=["lp", "online"], default="lp")
    run_p.add_argument("--horizon-quanta", type=int, default=None)
    run_p.add_argument("--seed", type=int, default=None)
    run_p.add_argument("--trace-out", default=None, metavar="PATH",
                       help="write the executed schedules as Chrome-trace/"
                            "Perfetto JSON (containers as tracks)")
    run_p.add_argument("--events-out", default=None, metavar="PATH",
                       help="write the tuner decision journal as JSONL "
                            "(per-candidate Eq. 3-5 gain breakdowns)")
    run_p.add_argument("--metrics-out", default=None, metavar="PATH",
                       help="write the metrics registry snapshot as JSON")
    run_p.add_argument("--recover-dir", default=None, metavar="DIR",
                       help="journal the run durably (WAL + snapshots) into "
                            "DIR so a killed run can be resumed")
    run_p.add_argument("--snapshot-every", type=int, default=8,
                       help="iterations between snapshots with --recover-dir")
    run_p.add_argument("--resume", default=None, metavar="DIR",
                       help="continue the crashed run journalled in DIR "
                            "(byte-identical to the uninterrupted run)")
    run_p.add_argument("--repeats", type=int, default=1,
                       help="repetitions with independently derived per-rep "
                            "seeds (rep 0 keeps --seed)")
    run_p.add_argument("--workers", type=int, default=1,
                       help="worker processes to fan repetitions over "
                            "(results are byte-identical to --workers 1)")
    run_p.add_argument("--roi-ledger", action="store_true",
                       help="account per-index ROI (build + storage cost vs "
                            "realized benefit) and emit index_roi events")
    run_p.add_argument("--watchdog-rollback", action="store_true",
                       help="drop indexes the regression watchdog flags as "
                            "costing more than they return (implies the "
                            "ledger)")
    run_p.add_argument("--watchdog-window-quanta", type=float, default=None,
                       help="regression confirmation-window length in quanta")
    run_p.add_argument("--watchdog-hysteresis", type=int, default=None,
                       help="consecutive breached windows before a flag")
    add_fault_args(run_p)
    run_p.set_defaults(func=cmd_run)

    cmp_p = sub.add_parser("compare", help="compare all four strategies")
    cmp_p.add_argument("--generator", choices=["phase", "random"], default="phase")
    cmp_p.add_argument("--horizon-quanta", type=int, default=None)
    cmp_p.add_argument("--seed", type=int, default=None)
    add_fault_args(cmp_p)
    cmp_p.set_defaults(func=cmd_compare)

    sch_p = sub.add_parser("schedule", help="print a dataflow's schedule skyline")
    sch_p.add_argument("--app", choices=["montage", "ligo", "cybershake"],
                       default="montage")
    sch_p.add_argument("--skyline", type=int, default=6)
    sch_p.add_argument("--containers", type=int, default=20)
    sch_p.add_argument("--seed", type=int, default=None)
    sch_p.set_defaults(func=cmd_schedule)

    t5_p = sub.add_parser("table5", help="reproduce Table 5 (index sizes)")
    t5_p.add_argument("--scale", type=float, default=2.0)
    t5_p.set_defaults(func=cmd_table5)

    t6_p = sub.add_parser("table6", help="reproduce Table 6 (index speedups)")
    t6_p.add_argument("--rows", type=int, default=150_000)
    t6_p.set_defaults(func=cmd_table6)

    obs_p = sub.add_parser(
        "obs", help="offline analysis of recorded observability artifacts"
    )
    obs_p.add_argument("mode", choices=["roi", "diff", "top"],
                       help="roi: per-index ROI ledger from a decision "
                            "journal; diff: first-divergence localization "
                            "between two runs' artifacts; top: top-k spans "
                            "and counters")
    obs_p.add_argument("a", nargs="?", default=None,
                       help="left run directory or artifact file (diff)")
    obs_p.add_argument("b", nargs="?", default=None,
                       help="right run directory or artifact file (diff)")
    obs_p.add_argument("--events", default=None, metavar="PATH",
                       help="decision journal JSONL, e.g. from --events-out "
                            "(roi)")
    obs_p.add_argument("--json", action="store_true",
                       help="machine-readable single-line JSON output (roi)")
    obs_p.add_argument("--metrics", default=None, metavar="PATH",
                       help="metrics snapshot JSON, from --metrics-out (top)")
    obs_p.add_argument("--trace", default=None, metavar="PATH",
                       help="Chrome-trace JSON, from --trace-out (top)")
    obs_p.add_argument("--k", type=int, default=10,
                       help="entries per ranking (top)")
    obs_p.set_defaults(func=cmd_obs)

    chaos_p = sub.add_parser(
        "chaos", help="crash-recovery chaos harness (sweep, soak or explore)"
    )
    chaos_p.add_argument("mode", choices=["sweep", "soak", "explore"],
                         help="sweep: subprocess kill at every crash point "
                              "and WAL boundary; soak: in-process crashes "
                              "composed with fault injection under "
                              "invariant monitors; explore: deterministic "
                              "schedule-space exploration of the service "
                              "loop's interleavable actions")
    chaos_p.add_argument("--workdir", default=None,
                         help="scratch directory for baseline + case runs "
                              "(required for sweep/soak)")
    chaos_p.add_argument("--seed", type=int, default=0)
    chaos_p.add_argument("--strategy", choices=[s.value for s in Strategy],
                         default="gain")
    chaos_p.add_argument("--generator", choices=["phase", "random"],
                         default="phase")
    chaos_p.add_argument("--horizon-quanta", type=int, default=6)
    chaos_p.add_argument("--snapshot-every", type=int, default=4)
    chaos_p.add_argument("--wal-stride", type=int, default=1,
                         help="test every Nth WAL record boundary (sweep)")
    chaos_p.add_argument("--torn-samples", type=int, default=3,
                         help="torn-record kills sampled across the log (sweep)")
    chaos_p.add_argument("--crashes", type=int, default=5,
                         help="planned in-process crashes (soak)")
    chaos_p.add_argument("--scenario", default="toy",
                         choices=["toy", "planted", "service", "tenants"],
                         help="exploration scenario (explore)")
    chaos_p.add_argument("--explore-strategy", default="exhaustive",
                         choices=["exhaustive", "por", "random"],
                         help="schedule enumeration strategy: bounded "
                              "exhaustive DFS, DFS with partial-order "
                              "reduction, or seeded random walks (explore)")
    chaos_p.add_argument("--budget", type=int, default=64,
                         help="random-walk schedules to run (explore)")
    chaos_p.add_argument("--depth", type=int, default=12,
                         help="branching choice sites per schedule in the "
                              "DFS modes; deeper sites run canonically "
                              "(explore)")
    chaos_p.add_argument("--save-replay", default=None, metavar="PATH",
                         help="write the minimized failing trace as a "
                              "replay file (explore)")
    chaos_p.add_argument("--replay", default=None, metavar="PATH",
                         help="re-execute a saved replay file and check the "
                              "recorded violations fire byte-identically "
                              "(explore)")
    chaos_p.add_argument("--expect-violation", default=None, metavar="NAME",
                         help="invert the exit code: succeed iff the named "
                              "invariant violation is found (regression "
                              "fixtures for planted bugs)")
    chaos_p.set_defaults(func=cmd_chaos)

    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=getattr(logging, args.log_level.upper()),
        format="%(asctime)s %(levelname)-7s %(name)s: %(message)s",
    )
    # The chaos sweep plants deterministic kills via REPRO_CRASH_* in
    # subprocess environments; a plain run installs no plan (free path).
    from repro.recovery.hooks import CrashPlan, install_crash_plan

    try:
        # Inside the handler so a bad REPRO_CRASH_POINT fails fast with
        # the valid names listed instead of a traceback.
        install_crash_plan(CrashPlan.from_env())
        return args.func(args)
    except ValueError as exc:  # bad knob values (ExperimentConfig.validate)
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
