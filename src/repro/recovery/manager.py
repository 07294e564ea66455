"""The recovery manager: durable WAL + snapshots + deterministic resume.

One :class:`RecoveryManager` is attached to a :class:`QaaSService` as its
``recovery`` log. During a run it journals every state mutation into the
write-ahead log and, at commit boundaries (the end of each service
iteration), appends a commit record carrying digests of the tuning state
and periodically pickles the *entire* run — service, loop state and the
process-global knapsack memo — into an atomic snapshot, in a writer
process forked at the boundary. The obs sinks' append-only lists
(journal events, tracer spans and instants) are the one exception: each
snapshot appends only what they gained since the previous one to a
framed segment file, and pickles the run without them.

Resume is **replay by re-execution**: the simulator is fully
deterministic under a fixed seed, so instead of interpreting WAL records
to mutate state, :meth:`RecoveryManager.resume` restores the newest
usable snapshot and simply re-runs :meth:`QaaSService.step` — while
*verifying*, byte for byte, that each record the re-execution emits
matches the logged suffix. Any divergence (state corruption, a config
drift, a non-deterministic code path) raises :class:`RecoveryError`
instead of silently producing a different run. Once the logged suffix is
exhausted the manager switches back to appending and the run continues
past the crash point as if it never happened — the final report and obs
artifacts are byte-identical to an uninterrupted run.

Determinism bookkeeping: counters that are identical between the
interrupted and uninterrupted runs (``recovery/wal_records``,
``recovery/snapshots_written``) go into the run's observability
artifacts; counters that only exist because a resume happened (replays,
truncated-tail detections, records verified) would break artifact
byte-equality and therefore live in a sidecar ``recovery-state.json``.
"""

from __future__ import annotations

import json
import pickle
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from repro.interleave.knapsack import export_knapsack_cache, restore_knapsack_cache
from repro.obs import Observation, RecordingJournal, RecordingTracer
from repro.recovery.hooks import NOOP_RECOVERY, RecoveryLog
from repro.recovery.snapshot import (
    RecoveryError,
    append_chunk,
    cut_segment,
    join_writer,
    list_snapshots,
    read_chunks,
    read_snapshot,
    write_snapshot,
)
from repro.recovery.wal import WalRecord, WriteAheadLog, encode_body

#: Version of the manifest and snapshot layout. Bump it whenever a pickled
#: class changes shape, so resume refuses an old run directory at its
#: manifest instead of failing part-way through unpickling a snapshot.
FORMAT_VERSION = 6

#: Snapshots retained per run directory (older ones are pruned).
SNAPSHOT_KEEP = 3

#: Default commit interval between snapshots, in service iterations.
DEFAULT_SNAPSHOT_EVERY = 8

MANIFEST_NAME = "manifest.json"
CONFIG_NAME = "config.pkl"
WAL_NAME = "wal.jsonl"
SEGMENT_NAME = "obs-segment.bin"
SIDECAR_NAME = "recovery-state.json"

#: Entry counts of the three obs lists a segment carries, in chunk order.
ObsCounts = tuple[int, int, int]
ObsLists = tuple[list[Any], list[Any], list[Any]]


def obs_lists(obs: Observation) -> ObsLists | None:
    """The append-only lists of recording obs sinks, in chunk order:
    journal events, tracer spans, tracer instants (``None`` unless both
    sinks record)."""
    journal, tracer = obs.journal, obs.tracer
    if not isinstance(journal, RecordingJournal) or not isinstance(tracer, RecordingTracer):
        return None
    return journal.events, tracer.spans, tracer.instants


def segment_chunk(lists: ObsLists, starts: ObsCounts) -> bytes:
    """One pickled segment chunk: each list's start count and its
    entries past that count."""
    return pickle.dumps(
        tuple((start, entries[start:]) for start, entries in zip(starts, lists)),
        protocol=pickle.HIGHEST_PROTOCOL,
    )


def rebuild_obs_lists(chunks: list[bytes], counts: ObsCounts) -> ObsLists | None:
    """The lists ``chunks`` rebuild, or ``None`` unless the chunks chain
    from zero (each starts where the previous one ended) up to exactly
    ``counts``."""
    lists: ObsLists = ([], [], [])
    for chunk in chunks:
        for entries, (start, tail) in zip(lists, pickle.loads(chunk)):
            if start != len(entries):
                return None
            entries.extend(tail)
    if tuple(len(entries) for entries in lists) != counts:
        return None
    return lists


@dataclass
class ResumedRun:
    """What :meth:`RecoveryManager.resume` restored.

    ``service``/``state`` are the unpickled pair when a usable snapshot
    existed (warm resume), else ``None`` — the caller rebuilds the run
    from ``manifest`` + ``config`` and replays the whole WAL (cold
    resume). Either way ``manager`` is already positioned on the logged
    suffix and ready to be attached.
    """

    manager: "RecoveryManager"
    manifest: dict[str, Any]
    config: Any
    service: Any = None
    state: Any = None
    snapshot_iteration: int | None = None


@dataclass
class RecoveryStats:
    """Resume-side counters (sidecar only; never in obs artifacts)."""

    replays: int = 0
    truncated_tails: int = 0
    records_verified: int = 0
    snapshots_restored: int = 0
    cold_resumes: int = 0
    finished: bool = False

    def to_dict(self) -> dict[str, object]:
        """JSON form, written to the sidecar."""
        return {
            "replays": self.replays,
            "truncated_tails": self.truncated_tails,
            "records_verified": self.records_verified,
            "snapshots_restored": self.snapshots_restored,
            "cold_resumes": self.cold_resumes,
            "finished": self.finished,
        }

    @classmethod
    def from_dict(cls, data: dict[str, object]) -> "RecoveryStats":
        """Inverse of :meth:`to_dict` (missing keys default)."""
        stats = cls()
        for name in (
            "replays",
            "truncated_tails",
            "records_verified",
            "snapshots_restored",
            "cold_resumes",
        ):
            setattr(stats, name, int(data.get(name, 0)))  # type: ignore[arg-type]
        stats.finished = bool(data.get("finished", False))
        return stats


class RecoveryManager(RecoveryLog):
    """Durable write-ahead journal + snapshot store for one run directory.

    Use :meth:`start` for a fresh run and :meth:`resume` after a crash;
    the instance is then passed (or re-attached) as the service's
    ``recovery`` log.
    """

    enabled = True

    def __init__(
        self,
        directory: str | Path,
        wal: WriteAheadLog,
        snapshot_every: int = DEFAULT_SNAPSHOT_EVERY,
        position: int = 0,
        replay_suffix: list[WalRecord] | None = None,
        stats: RecoveryStats | None = None,
        segment_bytes: int = 0,
        obs_counts: ObsCounts = (0, 0, 0),
    ) -> None:
        if snapshot_every < 1:
            raise ValueError("snapshot_every must be >= 1")
        self.directory = Path(directory)
        self.wal = wal
        self.snapshot_every = snapshot_every
        #: Logical records emitted by the run so far (restored from the
        #: snapshot on resume). Deterministic: equal at every commit to
        #: the uninterrupted run's value.
        self._position = position
        #: Logged records the re-execution still has to reproduce.
        self._suffix: list[WalRecord] = replay_suffix or []
        self._cursor = 0
        self.stats = stats if stats is not None else RecoveryStats()
        #: Commit-digest memo: index name -> (index, build_version,
        #: state digest). It lives on the manager, which a snapshot
        #: detaches, so it is never pickled and a resumed run starts cold.
        self._digests: dict[str, tuple[Any, int, str]] = {}
        #: Byte length of the obs segment, and the obs list counts its
        #: chunks reach (restored from the snapshot on resume).
        self._segment_bytes = segment_bytes
        self._obs_counts = obs_counts

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @classmethod
    def start(
        cls,
        directory: str | Path,
        config: Any,
        *,
        strategy: str,
        generator: str,
        interleaver: str,
        obs_enabled: bool,
        snapshot_every: int = DEFAULT_SNAPSHOT_EVERY,
        fsync: bool = False,
    ) -> "RecoveryManager":
        """Initialise a fresh recovery directory for one run.

        Refuses a directory that already holds a WAL: a crashed run must
        be *resumed*, not silently overwritten.
        """
        join_writer()
        root = Path(directory)
        root.mkdir(parents=True, exist_ok=True)
        if (root / WAL_NAME).exists():
            raise RecoveryError(
                f"{root / WAL_NAME} already exists; resume it instead of "
                "starting a new run over it"
            )
        manifest = {
            "format": FORMAT_VERSION,
            "strategy": strategy,
            "generator": generator,
            "interleaver": interleaver,
            "obs": obs_enabled,
            "snapshot_every": snapshot_every,
            "fsync": fsync,
        }
        (root / MANIFEST_NAME).write_text(
            json.dumps(manifest, sort_keys=True, indent=2) + "\n"
        )
        (root / CONFIG_NAME).write_bytes(
            pickle.dumps(config, protocol=pickle.HIGHEST_PROTOCOL)
        )
        (root / SEGMENT_NAME).write_bytes(b"")
        wal = WriteAheadLog(root / WAL_NAME, fsync=fsync)
        return cls(root, wal, snapshot_every=snapshot_every)

    @classmethod
    def resume(cls, directory: str | Path) -> ResumedRun:
        """Restore a crashed run directory to a continuable state.

        Opens the WAL (truncating any torn tail), restores the newest
        snapshot whose logical position is covered by the valid log and
        whose obs segment prefix reads back whole, cuts the segment to
        that prefix, and positions the manager on the remaining record
        suffix for verified re-execution. With no usable snapshot the
        caller gets a cold resume: rebuild the run from the manifest and
        replay the whole log.
        """
        join_writer()
        root = Path(directory)
        manifest_path = root / MANIFEST_NAME
        if not manifest_path.exists():
            raise RecoveryError(f"no {MANIFEST_NAME} in {root}")
        manifest = json.loads(manifest_path.read_text())
        if manifest.get("format") != FORMAT_VERSION:
            raise RecoveryError(
                f"unsupported recovery format {manifest.get('format')!r}"
            )
        config = pickle.loads((root / CONFIG_NAME).read_bytes())
        stats = cls._load_sidecar(root)
        if stats.finished:
            raise RecoveryError(f"run in {root} already finished; nothing to resume")
        wal = WriteAheadLog(root / WAL_NAME, fsync=bool(manifest.get("fsync", False)))
        stats.replays += 1
        if wal.truncated_tail:
            stats.truncated_tails += 1
        service = None
        state = None
        snapshot_iteration = None
        position = 0
        segment_bytes = 0
        obs_counts: ObsCounts = (0, 0, 0)
        for iteration, path in list_snapshots(root):
            payload = read_snapshot(path)
            if payload is None:
                continue  # corrupt snapshot: fall back to an older one
            blob = pickle.loads(payload)
            if blob.get("format") != FORMAT_VERSION:
                continue
            if blob["wal_position"] > wal.count:
                # Snapshot claims records the (truncated) log no longer
                # holds — cannot verify a replay against it; skip.
                continue
            segment_bytes, obs_counts = blob["segment"]
            chunks = read_chunks(root / SEGMENT_NAME, segment_bytes)
            rebuilt = None if chunks is None else rebuild_obs_lists(chunks, obs_counts)
            if rebuilt is None:
                # The segment prefix it names is short, torn or corrupt.
                continue
            restore_knapsack_cache(blob["knapsack"])
            service = blob["service"]
            state = blob["state"]
            lists = obs_lists(service.obs)
            if lists is not None:
                for entries, restored in zip(lists, rebuilt):
                    entries[:] = restored
            position = int(blob["wal_position"])
            snapshot_iteration = iteration
            stats.snapshots_restored += 1
            break
        if service is None:
            stats.cold_resumes += 1
            segment_bytes, obs_counts = 0, (0, 0, 0)
        # Chunks past the restored snapshot (a crash between a chunk's
        # append and its snapshot's publication, or a skipped newer
        # snapshot) are re-appended by the re-execution.
        cut_segment(root / SEGMENT_NAME, segment_bytes)
        manager = cls(
            root,
            wal,
            snapshot_every=int(manifest.get("snapshot_every", DEFAULT_SNAPSHOT_EVERY)),
            position=position,
            replay_suffix=wal.existing[position:],
            stats=stats,
            segment_bytes=segment_bytes,
            obs_counts=obs_counts,
        )
        manager._save_sidecar()
        if service is not None:
            service.recovery = manager
        return ResumedRun(
            manager=manager,
            manifest=manifest,
            config=config,
            service=service,
            state=state,
            snapshot_iteration=snapshot_iteration,
        )

    # ------------------------------------------------------------------
    # RecoveryLog interface
    # ------------------------------------------------------------------
    def record(self, kind: str, t: float, **fields: object) -> None:
        """Journal one state mutation at simulated time ``t``."""
        payload: dict[str, object] = {"kind": kind, "t": t}
        payload.update(fields)
        self._write(encode_body(payload))

    def _write(self, body: str) -> None:
        """Append ``body`` — or, mid-replay, verify it against the log."""
        if self._cursor < len(self._suffix):
            expected = self._suffix[self._cursor]
            if body != expected.body:
                raise RecoveryError(
                    "replay diverged from the write-ahead log at record "
                    f"{expected.position}: regenerated {body!r} but the "
                    f"log holds {expected.body!r}"
                )
            self._cursor += 1
            self._position += 1
            self.stats.records_verified += 1
            return
        self.wal.append_body(body)
        self._position += 1

    def on_run_begin(self, service: Any, state: Any) -> None:
        """Journal the run header and take the base (iteration-0) snapshot."""
        self.record(
            "run_started",
            0.0,
            seed=service.config.seed,
            strategy=service.strategy.value,
            events=len(state.ordered),
            horizon_s=service.config.total_time_s,
        )
        self._snapshot(service, state, 0.0)

    def commit(self, service: Any, state: Any, t: float) -> None:
        """Seal one service iteration: digest record, maybe snapshot."""
        self.record(
            "commit",
            t,
            iteration=state.i,
            history=service.tuner.history.window_digest(),
            catalog=self._catalog_digest(service),
            live_mb=service.storage.live_mb,
        )
        service.obs.metrics.counter("recovery/wal_records").set(float(self._position))
        if state.i % self.snapshot_every == 0:
            self._snapshot(service, state, t)

    def on_run_finished(self, service: Any, state: Any, t: float) -> None:
        """Seal the WAL; further resumes of this directory are refused."""
        join_writer()
        self.record("run_finished", t, iteration=state.i)
        service.obs.metrics.counter("recovery/wal_records").set(float(self._position))
        self.stats.finished = True
        self._save_sidecar()
        self.wal.close()

    # ------------------------------------------------------------------
    # Snapshots
    # ------------------------------------------------------------------
    def _snapshot(self, service: Any, state: Any, t: float) -> None:
        # Obs bookkeeping goes FIRST so the pickled snapshot contains its
        # own event and counter increment — replaying from it re-emits
        # only the *later* boundaries, keeping artifacts byte-identical.
        service.obs.metrics.counter("recovery/snapshots_written").inc()
        service.obs.journal.emit(
            "recovery_snapshot",
            t=t,
            iteration=state.i,
            wal_position=self._position,
        )
        # The obs lists only ever grow, so their entries past the last
        # chunk are all the segment lacks. The chunk is durable before
        # write_snapshot forks the writer of the snapshot that names it.
        lists = obs_lists(service.obs)
        if lists is not None:
            chunk = segment_chunk(lists, self._obs_counts)
            self._segment_bytes += append_chunk(self.directory / SEGMENT_NAME, chunk)
            self._obs_counts = (len(lists[0]), len(lists[1]), len(lists[2]))
        # The writer pickles its copy-on-write image of the run as it is
        # here, while this process goes on with the run.
        write_snapshot(
            self.directory,
            state.i,
            lambda: self._dumps(service, state, lists),
            keep=SNAPSHOT_KEEP,
        )
        self._save_sidecar()

    def _dumps(self, service: Any, state: Any, detach: ObsLists | None) -> bytes:
        """The snapshot payload: the run pickled with the obs lists in
        ``detach`` (the segment carries them) swapped for empty lists."""
        blob = {
            "format": FORMAT_VERSION,
            "iteration": state.i,
            "wal_position": self._position,
            "segment": (self._segment_bytes, self._obs_counts),
            "knapsack": export_knapsack_cache(),
            "service": service,
            "state": state,
        }
        # The manager holds an open WAL handle; detach it from the
        # service while pickling (a restored service is re-attached by
        # resume()). A single dumps() call keeps identity sharing — e.g.
        # state.metrics.registry IS service.obs.metrics — intact.
        previous = service.recovery
        service.recovery = NOOP_RECOVERY
        journal, tracer = service.obs.journal, service.obs.tracer
        if detach is not None:
            journal.events, tracer.spans, tracer.instants = [], [], []
        try:
            return pickle.dumps(blob, protocol=pickle.HIGHEST_PROTOCOL)
        finally:
            service.recovery = previous
            if detach is not None:
                journal.events, tracer.spans, tracer.instants = detach

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    def _catalog_digest(self, service: Any) -> str:
        """8-hex digest over every index's build-state digest.

        Each index's digest is memoised on its ``build_version``, which
        every build-state mutator of :class:`repro.data.index_model.Index`
        bumps, so a commit recomputes only the indexes its step changed.
        An entry is served only for the index object it was computed
        from: an in-process restore brings new objects under old names.
        """
        indexes = service.catalog.indexes
        memo = self._digests
        parts = []
        for name in sorted(indexes):
            index = indexes[name]
            entry = memo.get(name)
            if entry is None or entry[0] is not index or entry[1] != index.build_version:
                entry = memo[name] = (index, index.build_version, index.state_digest())
            parts.append(entry[2])
        return f"{zlib.crc32('|'.join(parts).encode('ascii')):08x}"

    @property
    def replaying(self) -> bool:
        """Whether the manager is still verifying the logged suffix."""
        return self._cursor < len(self._suffix)

    @property
    def position(self) -> int:
        """Logical records emitted (appended or verified) so far."""
        return self._position

    def _save_sidecar(self) -> None:
        (self.directory / SIDECAR_NAME).write_text(
            json.dumps(self.stats.to_dict(), sort_keys=True, indent=2) + "\n"
        )

    @staticmethod
    def _load_sidecar(root: Path) -> RecoveryStats:
        path = root / SIDECAR_NAME
        if not path.exists():
            return RecoveryStats()
        try:
            return RecoveryStats.from_dict(json.loads(path.read_text()))
        except (ValueError, TypeError):
            return RecoveryStats()

    def close(self) -> None:
        """Join the snapshot writer and release the WAL file handle
        (idempotent)."""
        try:
            join_writer()
        finally:
            self.wal.close()
