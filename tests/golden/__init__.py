"""Deterministic regeneration of the checked-in golden artifacts.

``python -m tests.golden`` (or ``make regen-golden``) rebuilds every
file in this directory from first principles — the same seeded runs CI
replays — so a legitimate behavior change updates the goldens in one
command instead of hand-editing byte blobs. A meta-test asserts the
regeneration is a no-op on a clean tree, which keeps the recipe itself
from drifting away from what the goldens actually contain.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import tempfile
from dataclasses import asdict, replace
from pathlib import Path
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from repro.core.config import ExperimentConfig
    from repro.core.metrics import ServiceMetrics

GOLDEN_DIR = Path(__file__).resolve().parent

# The seeded CLI run CI's obs-analyze job replays (ci.yml): any change
# here must change .github/workflows/ci.yml in the same commit.
ROI_RUN_ARGS = [
    "run", "--strategy", "gain", "--horizon-quanta", "20", "--seed", "7",
    "--roi-ledger",
]


def _regen_roi_table() -> str:
    from repro.cli import main as cli_main

    with tempfile.TemporaryDirectory() as tmp:
        events = str(Path(tmp) / "events.jsonl")
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink):
            rc = cli_main([*ROI_RUN_ARGS, "--events-out", events])
        assert rc == 0, f"seeded run failed: rc={rc}"
        table = io.StringIO()
        with contextlib.redirect_stdout(table):
            rc = cli_main(["obs", "roi", "--events", events])
        assert rc == 0, f"obs roi failed: rc={rc}"
    return table.getvalue()


# Default-config runs whose bytes a refactor must leave unchanged: the
# sha256 of stdout and of each obs artifact, once per interleaver, plus
# the random-app generator under online interleaving (its 100-operator
# dataflows carry many optional builds through the skyline scheduler).
DEFAULT_RUN_ARGS = [
    "run", "--strategy", "gain", "--seed", "7", "--horizon-quanta", "10",
]
DEFAULT_RUN_INTERLEAVERS = ("lp", "online")
RANDOM_ONLINE_RUN_ARGS = [
    "run", "--strategy", "gain", "--generator", "random",
    "--interleaver", "online", "--seed", "7", "--horizon-quanta", "20",
]
DEFAULT_RUN_ARTIFACTS = {
    "--events-out": "events.jsonl",
    "--metrics-out": "metrics.json",
    "--trace-out": "trace.json",
}


def _sha256(data: str) -> str:
    return hashlib.sha256(data.encode()).hexdigest()


def _regen_default_runs() -> str:
    from repro.cli import main as cli_main

    runs = {
        interleaver: [*DEFAULT_RUN_ARGS, "--interleaver", interleaver]
        for interleaver in DEFAULT_RUN_INTERLEAVERS
    }
    runs["random_online"] = RANDOM_ONLINE_RUN_ARGS
    digests: dict[str, dict[str, str]] = {}
    for name, args in runs.items():
        with tempfile.TemporaryDirectory() as tmp:
            out = Path(tmp)
            artifact_args = []
            for flag, artifact in DEFAULT_RUN_ARTIFACTS.items():
                artifact_args += [flag, str(out / artifact)]
            sink = io.StringIO()
            with contextlib.redirect_stdout(sink):
                rc = cli_main([*args, *artifact_args])
            assert rc == 0, f"{name} run failed: rc={rc}"
            # stdout names the artifact paths; drop the temp directory.
            stdout = sink.getvalue().replace(str(out), "<out>")
            digests[name] = {"stdout": _sha256(stdout)} | {
                flag: _sha256((out / artifact).read_text())
                for flag, artifact in DEFAULT_RUN_ARTIFACTS.items()
            }
    return json.dumps(digests, indent=2, sort_keys=True) + "\n"


# Hooked runs: every optional sink of the service loop switched on
# (WAL, ledger, watchdog) so a refactor of the loop's sink calls
# cannot reorder or drop a record unnoticed. The fully hooked config
# writes every WAL record kind in a few seconds.
HOOKED_WAL_KINDS = frozenset({
    "run_started", "clock_advance", "dataflow_admitted", "builds_scheduled",
    "execution", "index_build_completed", "index_build_checkpoint",
    "history_append", "history_slide", "index_deleted",
    "index_partition_invalidated", "commit", "run_finished",
})
HOOKED_JOURNAL_KINDS = frozenset({
    "index_build", "index_delete", "index_probe", "index_roi",
    "index_regression", "recovery_snapshot",
})


def _outcomes(metrics: ServiceMetrics) -> str:
    return json.dumps([asdict(o) for o in metrics.outcomes], sort_keys=True)


def hooked_config() -> ExperimentConfig:
    """The fully hooked run's config (online interleaver, recovery on)."""
    from repro.core.config import ExperimentConfig

    return ExperimentConfig(
        total_time_s=40 * 60.0, poisson_mean_s=30.0, seed=7,
        operators_per_dataflow=40, enable_pooling=True, update_interval_s=60.0,
        operator_failure_rate=0.05, container_crash_rate=0.01,
        straggler_rate=0.05, storage_put_failure_rate=0.1,
        storage_delete_failure_rate=0.1, checkpoint_interval_s=0.1,
        history_max_records=10, roi_ledger=True, watchdog_rollback=True,
    )


def _regen_hooked_runs() -> str:
    from repro import run_experiment
    from repro.core.service import Strategy
    from repro.obs import Observation, trace_json
    from repro.recovery.manager import WAL_NAME, RecoveryManager

    cfg = hooked_config()
    digests: dict[str, dict[str, str]] = {}
    journal_kinds: set[str] = set()

    def pin(name: str, obs: Observation, **extra: str) -> None:
        journal = obs.journal.to_jsonl()
        journal_kinds.update(json.loads(line)["event"] for line in journal.splitlines())
        digests[name] = {
            "journal": _sha256(journal), "metrics": _sha256(obs.metrics.to_json()),
        } | {key: _sha256(value) for key, value in extra.items()}

    with tempfile.TemporaryDirectory() as tmp:
        obs = Observation.recording()
        manager = RecoveryManager.start(
            tmp, cfg, strategy="gain", generator="phase",
            interleaver="online", obs_enabled=True,
        )
        metrics = run_experiment(
            Strategy.GAIN, config=cfg, interleaver="online",
            obs=obs, recovery=manager,
        )
        wal = (Path(tmp) / WAL_NAME).read_text()
    # A WAL line is "<length> <crc32> <json body>".
    wal_kinds = {
        json.loads(line.split(" ", 2)[2])["kind"] for line in wal.splitlines()
    }
    assert wal_kinds == HOOKED_WAL_KINDS, sorted(wal_kinds ^ HOOKED_WAL_KINDS)
    pin("full", obs, wal=wal, trace=trace_json(obs.tracer), outcomes=_outcomes(metrics))

    obs = Observation.recording()
    run_experiment(
        Strategy.GAIN, config=replace(cfg, watchdog_rollback=False),
        interleaver="online", obs=obs,
    )
    pin("observe_only_watchdog", obs)

    # The simulator's two execution branches the runs above barely
    # reach: pooled containers without faults, and dedicated containers
    # under operator failures, crashes and stragglers.
    branches = {
        "pooled_fault_free": replace(
            cfg, operator_failure_rate=0.0, container_crash_rate=0.0,
            straggler_rate=0.0, storage_put_failure_rate=0.0,
            storage_delete_failure_rate=0.0, checkpoint_interval_s=0.0,
        ),
        "dedicated_faults": replace(cfg, enable_pooling=False),
    }
    for name, branch_cfg in branches.items():
        obs = Observation.recording()
        metrics = run_experiment(
            Strategy.GAIN, config=branch_cfg, interleaver="lp", obs=obs,
        )
        pin(name, obs, trace=trace_json(obs.tracer), outcomes=_outcomes(metrics))

    missing = HOOKED_JOURNAL_KINDS - journal_kinds
    assert not missing, f"hooked runs never journal {sorted(missing)}"
    return json.dumps(digests, indent=2, sort_keys=True) + "\n"


def _regen_two_container_trace() -> str:
    from repro.obs import Observation, trace_json
    from tests.test_obs import _two_container_run

    obs = Observation.recording()
    _two_container_run(obs)
    return trace_json(obs.tracer)


def regenerate() -> dict[str, str]:
    """Golden file name -> freshly derived content (nothing written)."""
    return {
        "default_runs.json": _regen_default_runs(),
        "hooked_runs.json": _regen_hooked_runs(),
        "roi_table.txt": _regen_roi_table(),
        "two_container_trace.json": _regen_two_container_trace(),
    }


def write_goldens(dest: Path | None = None) -> list[Path]:
    dest = dest or GOLDEN_DIR
    written = []
    for name, content in regenerate().items():
        path = dest / name
        path.write_text(content)
        written.append(path)
    return written
