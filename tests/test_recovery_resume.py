"""Crash/resume equivalence tests for the recovery manager.

The contract under test: kill a recovery-enabled run at any named crash
point, resume it, and the final metrics and observability artifacts are
byte-identical to the uninterrupted run of the same seed.
"""

from __future__ import annotations

import json
import os
import pickle
import subprocess
import sys
import time
import zlib
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import pytest

from repro import Strategy, prepare_run, resume_run, run_experiment
from repro.core.config import default_config
from repro.obs import Observation, trace_json
from repro.recovery import (
    CRASH_POINTS,
    CrashPlan,
    RecoveryError,
    RecoveryManager,
    SimulatedCrash,
    install_crash_plan,
    scan_wal,
)
from repro.recovery import manager as recovery_manager
from repro.recovery.chaos import _metrics_fingerprint
from repro.recovery.manager import (
    FORMAT_VERSION,
    SEGMENT_NAME,
    SIDECAR_NAME,
    obs_lists,
    rebuild_obs_lists,
)
from repro.recovery.snapshot import (
    join_writer,
    list_snapshots,
    read_chunks,
    read_snapshot,
    snapshot_path,
)
from repro.recovery.wal import frame_record

from tests.golden import hooked_config

SEED = 7
HORIZON_S = 4 * 60.0


@pytest.fixture(autouse=True)
def _no_crash_plan():
    previous = install_crash_plan(None)
    yield
    install_crash_plan(previous)


def small_config(seed: int = SEED):
    return replace(default_config(), seed=seed, total_time_s=HORIZON_S)


def artifacts_of(obs) -> tuple[str, str, str]:
    return (obs.journal.to_jsonl(), obs.metrics.to_json(), trace_json(obs.tracer))


def run_with_recovery(directory, config, snapshot_every: int = 2):
    manager = RecoveryManager.start(
        directory,
        config,
        strategy="gain",
        generator="phase",
        interleaver="lp",
        obs_enabled=True,
        snapshot_every=snapshot_every,
    )
    obs = Observation.recording()
    metrics = run_experiment(Strategy.GAIN, config=config, obs=obs, recovery=manager)
    return metrics, obs, manager


@pytest.fixture(scope="module")
def reference(tmp_path_factory):
    """One uninterrupted recovery-enabled run: the byte-equality oracle."""
    directory = tmp_path_factory.mktemp("reference")
    metrics, obs, _ = run_with_recovery(directory, small_config())
    return _metrics_fingerprint(metrics), artifacts_of(obs)


def test_recovery_enabled_run_matches_plain_run(tmp_path, reference):
    """Journalling is observation-only: metrics equal the recovery-off run."""
    plain = run_experiment(Strategy.GAIN, config=small_config())
    assert _metrics_fingerprint(plain) == reference[0]


@pytest.mark.parametrize("point", CRASH_POINTS)
def test_crash_at_every_named_point_resumes_identically(tmp_path, reference, point):
    install_crash_plan(CrashPlan(point=point, hit=2, hard=False))
    try:
        metrics, obs, manager = run_with_recovery(tmp_path, small_config())
    except SimulatedCrash:
        install_crash_plan(None)
        resumed_metrics, resumed_service = resume_run(str(tmp_path))
        assert _metrics_fingerprint(resumed_metrics) == reference[0]
        assert artifacts_of(resumed_service.obs) == reference[1]
    else:
        # This barrier never fired twice in this workload; the untouched
        # run must still match the oracle.
        install_crash_plan(None)
        assert _metrics_fingerprint(metrics) == reference[0]
        assert artifacts_of(obs) == reference[1]


def _crash_then(tmp_path, plan: CrashPlan):
    install_crash_plan(plan)
    with pytest.raises(SimulatedCrash):
        run_with_recovery(tmp_path, small_config())
    install_crash_plan(None)


def test_cold_resume_without_snapshots(tmp_path, reference):
    _crash_then(tmp_path, CrashPlan(point="service.step", hit=3, hard=False))
    for snap in tmp_path.glob("snapshot-*.ckpt"):
        snap.unlink()
    metrics, service = resume_run(str(tmp_path))
    assert _metrics_fingerprint(metrics) == reference[0]
    assert artifacts_of(service.obs) == reference[1]
    sidecar = json.loads((tmp_path / "recovery-state.json").read_text())
    assert sidecar["cold_resumes"] == 1
    assert sidecar["finished"] is True


def test_double_crash_double_resume(tmp_path, reference):
    _crash_then(tmp_path, CrashPlan(point="service.step", hit=2, hard=False))
    install_crash_plan(CrashPlan(point="service.step", hit=4, hard=False))
    with pytest.raises(SimulatedCrash):
        resume_run(str(tmp_path))
    install_crash_plan(None)
    metrics, service = resume_run(str(tmp_path))
    assert _metrics_fingerprint(metrics) == reference[0]
    assert artifacts_of(service.obs) == reference[1]
    sidecar = json.loads((tmp_path / "recovery-state.json").read_text())
    assert sidecar["replays"] == 2


def test_sidecar_counts_resume_work(tmp_path):
    # hit 3: one iteration past the snapshot_every=2 boundary, so the
    # restored snapshot has a non-empty record suffix to verify.
    _crash_then(tmp_path, CrashPlan(point="service.post_commit", hit=3, hard=False))
    resume_run(str(tmp_path))
    sidecar = json.loads((tmp_path / "recovery-state.json").read_text())
    assert sidecar["replays"] == 1
    assert sidecar["snapshots_restored"] == 1
    assert sidecar["records_verified"] > 0
    assert sidecar["finished"] is True


def test_obs_artifacts_carry_recovery_metrics(tmp_path):
    _, obs, _ = run_with_recovery(tmp_path, small_config())
    snapshot = json.loads(obs.metrics.to_json())
    flat = json.dumps(snapshot)
    assert "recovery/wal_records" in flat
    assert "recovery/snapshots_written" in flat
    assert any(
        json.loads(line)["event"] == "recovery_snapshot"
        for line in obs.journal.to_jsonl().splitlines()
    )


def test_start_refuses_existing_wal(tmp_path):
    run_with_recovery(tmp_path, small_config())
    with pytest.raises(RecoveryError, match="resume it instead"):
        RecoveryManager.start(
            tmp_path,
            small_config(),
            strategy="gain",
            generator="phase",
            interleaver="lp",
            obs_enabled=False,
        )


def test_resume_refuses_finished_run(tmp_path):
    run_with_recovery(tmp_path, small_config())
    with pytest.raises(RecoveryError, match="already finished"):
        resume_run(str(tmp_path))


@pytest.mark.parametrize("old_format", [7, 8])
def test_resume_refuses_an_old_format_directory(tmp_path, old_format):
    """A format-7 segment holds per-index gain dicts where format 8
    journals one table per decision; a format-8 snapshot pickles the
    service's guard and its config the tenancy fields that format 9
    dropped. Resuming either would fail part-way through unpickling."""
    install_crash_plan(CrashPlan(point="service.step", hit=3, hard=False))
    with pytest.raises(SimulatedCrash):
        run_with_recovery(tmp_path, small_config())
    install_crash_plan(None)
    manifest_path = tmp_path / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    assert manifest["format"] == FORMAT_VERSION
    manifest_path.write_text(json.dumps(dict(manifest, format=old_format)))
    with pytest.raises(
        RecoveryError, match=f"unsupported recovery format {old_format}"
    ):
        resume_run(str(tmp_path))


def test_replay_divergence_raises_recovery_error(tmp_path):
    # Only the base snapshot exists (huge snapshot_every), so the whole
    # log is replayed — any tampered record must be caught.
    install_crash_plan(CrashPlan(point="service.step", hit=3, hard=False))
    with pytest.raises(SimulatedCrash):
        run_with_recovery(tmp_path, small_config(), snapshot_every=10_000)
    install_crash_plan(None)
    wal_path = tmp_path / "wal.jsonl"
    records = scan_wal(wal_path).records
    assert len(records) > 3
    # Rewrite record 3 with a corrupted-but-validly-framed body: the CRC
    # matches, so only replay verification can notice. Flip one digit.
    body = records[3].body
    tampered = body
    for i, ch in enumerate(body):
        if ch.isdigit():
            tampered = body[:i] + ("1" if ch != "1" else "2") + body[i + 1:]
            break
    assert tampered != body
    frames = [frame_record(r.body) for r in records]
    frames[3] = frame_record(tampered)
    wal_path.write_bytes(b"".join(frames))
    with pytest.raises(RecoveryError, match="diverged"):
        resume_run(str(tmp_path))


def test_snapshot_skipped_when_log_shorter_than_snapshot(tmp_path, reference):
    """A snapshot whose wal_position exceeds the (truncated) log is
    unusable; resume falls back to an older one."""
    _crash_then(tmp_path, CrashPlan(point="service.pre_finish", hard=False))
    # Truncate the log back to just past the base snapshot: every later
    # snapshot claims records the log no longer holds.
    records = scan_wal(tmp_path / "wal.jsonl").records
    keep = records[:3]
    (tmp_path / "wal.jsonl").write_bytes(
        b"".join(frame_record(r.body) for r in keep)
    )
    metrics, service = resume_run(str(tmp_path))
    assert _metrics_fingerprint(metrics) == reference[0]
    assert artifacts_of(service.obs) == reference[1]


# ----------------------------------------------------------------------
# The hooked configuration: online interleaver, pooling, faults, data
# updates, ledger and watchdog rollback, obs recording
# ----------------------------------------------------------------------
HOOKED_SNAPSHOT_EVERY = 4


def _drive(service, state):
    """The service loop, checking after every step that the state holds
    no dataflow at an admitted position."""
    while service.step(state):
        assert min(state.generated, default=state.i) >= state.i
    return service.finish_run(state)


def _hooked_run(directory):
    config = hooked_config()
    manager = RecoveryManager.start(
        directory,
        config,
        strategy="gain",
        generator="phase",
        interleaver="online",
        obs_enabled=True,
        snapshot_every=HOOKED_SNAPSHOT_EVERY,
    )
    obs = Observation.recording()
    service, events = prepare_run(
        Strategy.GAIN, config=config, interleaver="online", obs=obs, recovery=manager
    )
    metrics = _drive(service, service.begin_run(events))
    return metrics, obs


@pytest.fixture(scope="module")
def hooked_finished(tmp_path_factory):
    """One uninterrupted hooked run: its directory, metrics and obs."""
    directory = tmp_path_factory.mktemp("hooked")
    metrics, obs = _hooked_run(directory)
    return directory, metrics, obs


@pytest.fixture(scope="module")
def hooked_reference(hooked_finished):
    _, metrics, obs = hooked_finished
    return _metrics_fingerprint(metrics), artifacts_of(obs)


@pytest.mark.parametrize("hit", [10, 17])
def test_hooked_run_resumes_identically_across_a_snapshot(tmp_path, hooked_reference, hit):
    """Crash after a snapshot whose state holds pending decisions with
    scheduled builds and queued dataflows not yet admitted; the resumed
    run's metrics and obs artifacts equal the uninterrupted run's."""
    install_crash_plan(CrashPlan(point="service.post_commit", hit=hit, hard=False))
    with pytest.raises(SimulatedCrash):
        _hooked_run(tmp_path)
    install_crash_plan(None)
    resumed = RecoveryManager.resume(tmp_path)
    state = resumed.state
    assert resumed.snapshot_iteration == hit - hit % HOOKED_SNAPSHOT_EVERY
    assert any(decision.chosen.scheduled_builds for _, _, decision, _ in state.pending)
    assert state.generated and min(state.generated) >= state.i
    metrics = _drive(resumed.service, state)
    assert _metrics_fingerprint(metrics) == hooked_reference[0]
    assert artifacts_of(resumed.service.obs) == hooked_reference[1]


# ----------------------------------------------------------------------
# The obs segment: each snapshot appends the obs lists' new entries
# ----------------------------------------------------------------------
def _segment_of(directory, iteration):
    """(segment bytes, obs counts) the snapshot of ``iteration`` names."""
    blob = pickle.loads(read_snapshot(snapshot_path(directory, iteration)))
    return blob["segment"]


def _finish_resumed(directory, hooked_reference, restored):
    resumed = RecoveryManager.resume(directory)
    assert resumed.snapshot_iteration == restored
    metrics = _drive(resumed.service, resumed.state)
    assert _metrics_fingerprint(metrics) == hooked_reference[0]
    assert artifacts_of(resumed.service.obs) == hooked_reference[1]


def test_hooked_crash_before_publishing_a_snapshot_cuts_its_chunk(
    tmp_path, hooked_reference
):
    """Killed after the second snapshot's chunk is durable but before the
    snapshot is published: resume restores the base snapshot and cuts
    the orphaned chunk, and the run still ends byte-identical."""
    install_crash_plan(CrashPlan(point="recovery.pre_snapshot", hit=2, hard=False))
    with pytest.raises(SimulatedCrash):
        _hooked_run(tmp_path)
    install_crash_plan(None)
    segment = tmp_path / SEGMENT_NAME
    length, _ = _segment_of(tmp_path, 0)
    assert [i for i, _ in list_snapshots(tmp_path)] == [0]
    assert len(read_chunks(segment, segment.stat().st_size)) == (
        len(read_chunks(segment, length)) + 1
    )
    resumed = RecoveryManager.resume(tmp_path)
    assert resumed.snapshot_iteration == 0
    assert segment.stat().st_size == length
    metrics = _drive(resumed.service, resumed.state)
    assert _metrics_fingerprint(metrics) == hooked_reference[0]
    assert artifacts_of(resumed.service.obs) == hooked_reference[1]


@pytest.mark.parametrize("damage", ["truncate", "flip"])
def test_hooked_resume_skips_a_snapshot_whose_chunk_is_damaged(
    tmp_path, hooked_reference, damage
):
    """A torn or corrupted last chunk makes the newest snapshot unusable:
    resume falls back to the previous one."""
    install_crash_plan(CrashPlan(point="service.post_commit", hit=10, hard=False))
    with pytest.raises(SimulatedCrash):
        _hooked_run(tmp_path)
    install_crash_plan(None)
    segment = tmp_path / SEGMENT_NAME
    previous, _ = _segment_of(tmp_path, 4)
    newest, _ = _segment_of(tmp_path, 8)
    assert segment.stat().st_size == newest > previous
    raw = bytearray(segment.read_bytes())
    if damage == "truncate":
        del raw[(previous + newest) // 2:]
    else:
        raw[(previous + newest) // 2] ^= 0x01
    segment.write_bytes(bytes(raw))
    _finish_resumed(tmp_path, hooked_reference, restored=4)


@pytest.mark.parametrize(
    ("point", "hit", "restored"),
    [("service.post_commit", 10, 8), ("recovery.pre_snapshot", 3, 4)],
)
def test_hooked_second_crash_resumes_from_the_newest_snapshot(
    tmp_path, hooked_reference, point, hit, restored
):
    """Snapshots a resumed run writes name the segment the resume left:
    a second crash restores the newest of them instead of falling back."""
    install_crash_plan(CrashPlan(point=point, hit=hit, hard=False))
    with pytest.raises(SimulatedCrash):
        _hooked_run(tmp_path)
    install_crash_plan(None)
    resumed = RecoveryManager.resume(tmp_path)
    assert resumed.snapshot_iteration == restored
    # Two snapshots past the restored one: after a missing cut, the
    # first of them could still read the stale copy of its own chunk.
    install_crash_plan(CrashPlan(point="service.post_commit", hit=9, hard=False))
    with pytest.raises(SimulatedCrash):
        _drive(resumed.service, resumed.state)
    install_crash_plan(None)
    newest = restored + 9 - (restored + 9) % HOOKED_SNAPSHOT_EVERY
    assert newest == restored + 2 * HOOKED_SNAPSHOT_EVERY
    assert list_snapshots(tmp_path)[0][0] == newest
    _finish_resumed(tmp_path, hooked_reference, restored=newest)


def test_segment_rebuilds_a_prefix_of_the_live_obs_lists(hooked_finished):
    """The premise of the segment: nothing mutates an obs entry after
    appending it, so each snapshot's segment prefix rebuilds exactly the
    first entries of the finished run's journal, spans and instants."""
    directory, _, obs = hooked_finished
    live = obs_lists(obs)
    snapshots = list_snapshots(directory)
    assert len(snapshots) == 3
    for iteration, _ in snapshots:
        length, counts = _segment_of(directory, iteration)
        rebuilt = rebuild_obs_lists(read_chunks(directory / SEGMENT_NAME, length), counts)
        assert all(counts)
        for entries, everything, count in zip(rebuilt, live, counts):
            assert entries == everything[:count]


def test_snapshot_leaves_the_obs_lists_to_the_segment(tmp_path):
    """Journal events emitted between two snapshots grow the segment,
    not the snapshot."""
    config = small_config()
    manager = RecoveryManager.start(
        tmp_path, config, strategy="gain", generator="phase",
        interleaver="lp", obs_enabled=True,
    )
    obs = Observation.recording()
    service, events = prepare_run(
        Strategy.GAIN, config=config, obs=obs, recovery=manager
    )
    state = service.begin_run(events)
    assert service.step(state) and service.step(state)
    sizes = []
    for burst in (0, 3000):
        for k in range(burst):
            obs.journal.emit("synthetic", t=0.0, k=k, label=f"event-{k}")
        manager._snapshot(service, state, 0.0)
        join_writer()
        sizes.append((
            snapshot_path(tmp_path, state.i).stat().st_size,
            (tmp_path / SEGMENT_NAME).stat().st_size,
        ))
    manager.close()
    (snapshot_before, segment_before), (snapshot_after, segment_after) = sizes
    assert snapshot_after - snapshot_before < 1024
    assert segment_after - segment_before > 3000 * 20


def test_pending_decisions_keep_only_the_gains_of_their_builds():
    """A decision waiting to settle keeps the gains of the indexes it
    builds (what the build journal events read), no skyline and no
    ranking."""
    service, events = prepare_run(
        Strategy.GAIN, config=hooked_config(), interleaver="online"
    )
    state = service.begin_run(events)
    kept = 0
    while service.step(state):
        for _, _, decision, _ in state.pending:
            scheduled = {c.index_name for c in decision.chosen.scheduled_builds}
            assert set(decision.gains) == scheduled
            assert decision.skyline == [] and decision.ranked == []
            kept += len(decision.gains)
    service.finish_run(state)
    assert kept > 0


def test_an_admitted_position_is_never_regenerated():
    """Generation draws from the workload RNG in admission order, so
    reading a released position fails instead of drawing again."""
    service, events = prepare_run(
        Strategy.GAIN, config=hooked_config(), interleaver="online"
    )
    state = service.begin_run(events)
    assert service.step(state) and service.step(state)
    with pytest.raises(IndexError, match="released"):
        service._dataflow_at(state, 1)


# ----------------------------------------------------------------------
# The forked snapshot writer: exact bytes, failures, and its lifetime
# ----------------------------------------------------------------------
SNAPSHOT_MAGIC = b"RPSN1\n"


def _framed(payload: bytes) -> bytes:
    """A snapshot file's bytes: magic, CRC32 of the payload, payload."""
    return SNAPSHOT_MAGIC + zlib.crc32(payload).to_bytes(4, "big") + payload


def _spy_writers(monkeypatch) -> list:
    """Record the handle of every writer the manager forks."""
    handles = []
    real = recovery_manager.write_snapshot

    def spy(*args, **kwargs):
        handle = real(*args, **kwargs)
        handles.append(handle)
        return handle

    monkeypatch.setattr(recovery_manager, "write_snapshot", spy)
    return handles


def _slow_writers(monkeypatch, seconds: float) -> None:
    """Make every writer sleep before it pickles, so a writer nobody
    joins is still running when a test looks for it."""
    real = RecoveryManager._dumps

    def slow(self, *args):
        time.sleep(seconds)
        return real(self, *args)

    monkeypatch.setattr(RecoveryManager, "_dumps", slow)


def _assert_gone(handles) -> None:
    """Every writer was reaped: not running, and not a zombie either."""
    assert handles
    for handle in handles:
        with pytest.raises(ProcessLookupError):
            os.kill(handle.pid, 0)


def _boundaries(directory, snapshot_every: int) -> list[int]:
    """The iterations a logged run snapshots at: the base snapshot, then
    every commit whose iteration the cadence divides."""
    return [0] + [
        r.payload["iteration"] for r in scan_wal(directory / "wal.jsonl").records
        if r.payload["kind"] == "commit" and r.payload["iteration"] % snapshot_every == 0
    ]


def _start_small(directory, snapshot_every: int = 2):
    config = small_config()
    manager = RecoveryManager.start(
        directory, config, strategy="gain", generator="phase",
        interleaver="lp", obs_enabled=True, snapshot_every=snapshot_every,
    )
    service, events = prepare_run(
        Strategy.GAIN, config=config, obs=Observation.recording(), recovery=manager
    )
    return manager, service, events


def test_every_published_snapshot_is_the_synchronous_payload(tmp_path, monkeypatch):
    """At every boundary of the hooked run, the file the writer publishes
    is byte for byte the magic, CRC and ``_dumps`` payload computed in
    the service process at that boundary."""
    real = RecoveryManager._snapshot
    boundaries = []

    def checked(self, service, state, t):
        real(self, service, state, t)
        payload = self._dumps(service, state, obs_lists(service.obs))
        join_writer()
        path = snapshot_path(self.directory, state.i)
        assert path.read_bytes() == _framed(payload)
        boundaries.append(state.i)

    monkeypatch.setattr(RecoveryManager, "_snapshot", checked)
    _hooked_run(tmp_path)
    assert boundaries == _boundaries(tmp_path, HOOKED_SNAPSHOT_EVERY)
    assert len(boundaries) > 3


def test_the_sidecar_is_written_only_when_its_counters_move(tmp_path, monkeypatch):
    """The sidecar's counters move only during a resume's replay and at
    the run's end, so a fresh hooked run writes it at its base snapshot
    and at its end, and no write repeats the one before it; after every
    boundary, fresh or resumed, the file holds the manager's counters."""
    writes = []
    real_write = Path.write_text

    def counted(self, data, *args, **kwargs):
        if self.name == SIDECAR_NAME:
            writes.append(json.loads(data))
        return real_write(self, data, *args, **kwargs)

    real_snapshot = RecoveryManager._snapshot

    def checked(self, service, state, t):
        real_snapshot(self, service, state, t)
        sidecar = json.loads((self.directory / SIDECAR_NAME).read_text())
        assert sidecar == self.stats.to_dict()

    monkeypatch.setattr(Path, "write_text", counted)
    monkeypatch.setattr(RecoveryManager, "_snapshot", checked)
    _hooked_run(tmp_path / "fresh")
    assert len(_boundaries(tmp_path / "fresh", HOOKED_SNAPSHOT_EVERY)) > 3
    assert [write["finished"] for write in writes] == [False, True]

    writes.clear()
    install_crash_plan(CrashPlan(point="service.post_commit", hit=10, hard=False))
    with pytest.raises(SimulatedCrash):
        _hooked_run(tmp_path / "resumed")
    install_crash_plan(None)
    resumed = RecoveryManager.resume(tmp_path / "resumed")
    _drive(resumed.service, resumed.state)
    assert all(before != after for before, after in zip(writes, writes[1:]))
    assert writes[-1]["finished"] and writes[-1]["records_verified"] > 0


def test_a_failed_writer_raises_at_the_next_join(tmp_path, capfd):
    """A writer that cannot pickle the run exits non-zero, publishes
    nothing, and the next join names its iteration."""
    manager, service, events = _start_small(tmp_path)
    state = service.begin_run(events)
    assert service.step(state)
    state.unpicklable = lambda: None
    manager._snapshot(service, state, 0.0)
    with pytest.raises(RecoveryError, match=f"iteration {state.i} .* status 1"):
        manager.close()
    assert "snapshot writer for snapshot-00000001.ckpt failed" in capfd.readouterr().err
    assert [i for i, _ in list_snapshots(tmp_path)] == [0]
    assert [p.name for p in tmp_path.glob("*.tmp")] == []
    join_writer()  # the failed writer was reaped: nothing left to join


def test_close_joins_the_writer(tmp_path, monkeypatch):
    handles = _spy_writers(monkeypatch)
    _slow_writers(monkeypatch, 0.3)
    manager, service, events = _start_small(tmp_path)
    service.begin_run(events)
    manager.close()
    _assert_gone(handles)
    assert snapshot_path(tmp_path, 0).exists()


def test_finishing_a_run_joins_its_last_writer(tmp_path, monkeypatch):
    handles = _spy_writers(monkeypatch)
    manager, service, events = _start_small(tmp_path)
    state = service.begin_run(events)
    while service.step(state):
        pass
    service.finish_run(state)
    _assert_gone(handles)
    assert snapshot_path(tmp_path, handles[-1].iteration).exists()
    manager.close()


def test_the_writer_runs_no_barrier(tmp_path):
    """The service process runs both recovery barriers once per snapshot,
    in order; a writer that ran any barrier would exit 99 and fail the
    next join."""

    class Tripwire(CrashPlan):
        def __init__(self):
            super().__init__(hard=False)
            self.owner = os.getpid()
            self.seen = []

        def on_crash_point(self, name):
            if os.getpid() != self.owner:
                os._exit(99)
            if name.startswith("recovery."):
                self.seen.append(name)

    plan = Tripwire()
    install_crash_plan(plan)
    run_with_recovery(tmp_path, small_config())
    install_crash_plan(None)
    snapshots = len(_boundaries(tmp_path, 2))
    assert plan.seen == ["recovery.pre_snapshot", "recovery.post_snapshot"] * snapshots


def test_a_planned_crash_joins_the_writer_first(tmp_path, monkeypatch):
    """A crash right after a writer was forked still leaves its snapshot
    published and the writer reaped."""
    handles = _spy_writers(monkeypatch)
    _slow_writers(monkeypatch, 0.3)
    install_crash_plan(CrashPlan(point="recovery.post_snapshot", hit=2, hard=False))
    with pytest.raises(SimulatedCrash):
        run_with_recovery(tmp_path, small_config())
    install_crash_plan(None)
    _assert_gone(handles)
    assert [i for i, _ in list_snapshots(tmp_path)] == [2, 0]


def test_a_killed_process_joins_the_writer_first(tmp_path):
    """A hard planned crash one commit past the boundary at iteration 4:
    its writer sleeps through the crash unless the crash joins it."""
    out = _run_script(
        WRITER_SCRIPT + "sys.exit(main(" + repr([
            "run", "--strategy", "gain", "--horizon-quanta", "6", "--seed", "7",
            "--recover-dir", str(tmp_path), "--snapshot-every", "4",
        ]) + "))\n",
        REPRO_CRASH_POINT="service.post_commit", REPRO_CRASH_HIT="5",
        expect=43,
    )
    _assert_gone(_printed_writers(out))
    assert [i for i, _ in list_snapshots(tmp_path)] == [4, 0]


def test_interpreter_exit_joins_the_writer(tmp_path):
    """A process that exits without close() still waits for its writer."""
    out = _run_script(WRITER_SCRIPT + f"""
from repro import Strategy, prepare_run
from repro.recovery.manager import RecoveryManager
from tests.golden import hooked_config

manager = RecoveryManager.start(
    {str(tmp_path)!r}, hooked_config(), strategy="gain", generator="phase",
    interleaver="online", obs_enabled=False,
)
service, events = prepare_run(
    Strategy.GAIN, config=hooked_config(), interleaver="online", recovery=manager
)
service.begin_run(events)
sys.exit(0)
""", expect=0)
    handles = _printed_writers(out)
    assert [h.iteration for h in handles] == [0]
    _assert_gone(handles)
    assert snapshot_path(tmp_path, 0).exists()


#: Prefix of the subprocess scripts: print each writer's pid, and make
#: each writer sleep before it pickles.
WRITER_SCRIPT = """
import sys, time
import repro.recovery.manager as recovery_manager
from repro.cli import main

real_write = recovery_manager.write_snapshot
real_dumps = recovery_manager.RecoveryManager._dumps


def spy(*args, **kwargs):
    handle = real_write(*args, **kwargs)
    print(f"writer {handle.pid} {handle.iteration}", flush=True)
    return handle


def slow(self, *args):
    time.sleep(1.0)
    return real_dumps(self, *args)


recovery_manager.write_snapshot = spy
recovery_manager.RecoveryManager._dumps = slow
"""


def _run_script(script: str, expect: int, **env: str) -> str:
    repo = Path(__file__).resolve().parents[1]
    environ = dict(os.environ, **env)
    environ["PYTHONPATH"] = os.pathsep.join(
        [str(repo / "src"), str(repo), environ.get("PYTHONPATH", "")]
    )
    done = subprocess.run(
        [sys.executable, "-c", script], env=environ, capture_output=True,
        text=True, timeout=120,
    )
    assert done.returncode == expect, done.stderr
    return done.stdout


def _printed_writers(stdout: str) -> list:
    return [
        SimpleNamespace(pid=int(pid), iteration=int(iteration))
        for _, pid, iteration in (
            line.split() for line in stdout.splitlines() if line.startswith("writer ")
        )
    ]
