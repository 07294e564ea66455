"""repro.recovery: crash-safe tuning state and deterministic chaos.

The service's tuning state — query history window, index catalog, build
checkpoints, storage billing position — lives in process memory; this
package makes it durable and resumable:

* :mod:`repro.recovery.hooks` — the pure-stdlib leaf the instrumented
  layers import: the :class:`RecoveryLog` no-op interface and the named
  :func:`crash_point` barriers (LAY01 allows it from any layer, like
  ``repro.obs``).
* :mod:`repro.recovery.wal` — the append-only write-ahead journal
  (checksummed JSONL framing, torn-tail truncation on open).
* :mod:`repro.recovery.snapshot` — atomic checksummed full-state
  snapshots, pickled and written by a writer process forked at each
  snapshot boundary (:func:`write_snapshot`, :func:`join_writer`).
* :mod:`repro.recovery.manager` — :class:`RecoveryManager`: journals
  every state mutation, snapshots periodically, and resumes a killed
  run by verified deterministic re-execution, byte-identical to the
  uninterrupted run.
* :mod:`repro.recovery.invariants` — conservation-property monitors
  (billing integral, catalog/storage agreement, history monotonicity,
  schedule non-overlap) for the chaos soak.
* :mod:`repro.recovery.chaos` — the deterministic crash harness:
  crash-at-every-barrier / every-WAL-record subprocess sweeps and an
  in-process fault-storm soak.
"""

from __future__ import annotations

from repro.recovery.hooks import (
    CRASH_EXIT_CODE,
    CRASH_POINTS,
    CrashPlan,
    NOOP_RECOVERY,
    RecoveryLog,
    SimulatedCrash,
    active_crash_plan,
    crash_point,
    install_crash_plan,
)
from repro.recovery.manager import (
    DEFAULT_SNAPSHOT_EVERY,
    RecoveryManager,
    RecoveryStats,
    ResumedRun,
)
from repro.recovery.snapshot import (
    RecoveryError,
    join_writer,
    list_snapshots,
    prune_snapshots,
    read_snapshot,
    write_snapshot,
)
from repro.recovery.wal import (
    WalRecord,
    WalScan,
    WriteAheadLog,
    encode_body,
    frame_record,
    scan_wal,
)

__all__ = [
    "CRASH_EXIT_CODE",
    "CRASH_POINTS",
    "CrashPlan",
    "DEFAULT_SNAPSHOT_EVERY",
    "NOOP_RECOVERY",
    "RecoveryError",
    "RecoveryLog",
    "RecoveryManager",
    "RecoveryStats",
    "ResumedRun",
    "SimulatedCrash",
    "WalRecord",
    "WalScan",
    "WriteAheadLog",
    "active_crash_plan",
    "crash_point",
    "encode_body",
    "frame_record",
    "install_crash_plan",
    "join_writer",
    "list_snapshots",
    "prune_snapshots",
    "read_snapshot",
    "scan_wal",
    "write_snapshot",
]
