"""Checksummed snapshots published by a forked writer, and the segment.

A snapshot is the pickled full tuning state of a run at one iteration
boundary (service + loop state + the process-global knapsack memo),
prefixed with a magic marker and a CRC32 of the payload. Readers
validate magic + checksum and report corruption as "snapshot unusable"
rather than an exception, so the resume path can fall back to an older
snapshot (or a cold replay).

:func:`write_snapshot` forks a *writer* process, which sees a
copy-on-write image of the run frozen at the call. The writer pickles
the run, writes the blob to a ``.tmp`` sibling named after its pid,
fsyncs it and publishes it with ``os.replace``, so a crash mid-write
leaves at worst a stale temp file, never a half-written snapshot under
the real name. The service process goes on with the run meanwhile.
At most one writer is in flight per process: :func:`join_writer` waits
for it, and raises :class:`RecoveryError` if it failed.

A *segment* is an append-only file of chunks, each framed as
``<length:u32 BE> <crc32:u32 BE> <payload>``. A snapshot names the
segment prefix it rests on by its byte length; reading that prefix
back either yields every chunk payload in it or, when the prefix is
short, torn or fails a checksum, ``None``.
"""

from __future__ import annotations

import atexit
import gc
import os
import re
import struct
import sys
import warnings
import zlib
from pathlib import Path
from typing import Callable, NoReturn

from repro.recovery.hooks import before_planned_crash, crash_point, install_crash_plan

_MAGIC = b"RPSN1\n"
_CHUNK_HEADER = struct.Struct(">II")
_NAME_RE = re.compile(r"^snapshot-(\d{8})\.ckpt$")
#: The DeprecationWarning Python 3.12+ gives for ``os.fork`` in a process
#: with more than one thread (numpy's BLAS pool is one). It is filtered
#: at the one fork site: see :func:`write_snapshot`.
_FORK_WARNING = r"This process .*is multi-threaded, use of fork\(\)"


class RecoveryError(RuntimeError):
    """Resume cannot reproduce the logged run (divergence or corruption),
    or a snapshot writer failed."""


def snapshot_path(directory: str | Path, iteration: int) -> Path:
    """Canonical file name of the snapshot taken at ``iteration``."""
    return Path(directory) / f"snapshot-{iteration:08d}.ckpt"


class SnapshotWriter:
    """Handle on one forked snapshot writer."""

    def __init__(self, pid: int, iteration: int, path: Path) -> None:
        self.pid = pid
        self.iteration = iteration
        self.path = path
        #: Exit status once joined.
        self.status: int | None = None

    def join(self) -> Path:
        """Wait for the writer; its published path, or
        :class:`RecoveryError` if it exited non-zero."""
        global _writer
        if self.status is None:
            _, status = os.waitpid(self.pid, 0)
            self.status = os.waitstatus_to_exitcode(status)
            if _writer is self:
                _writer = None
        if self.status != 0:
            raise RecoveryError(
                f"snapshot writer for iteration {self.iteration} "
                f"(pid {self.pid}) exited with status {self.status}"
            )
        return self.path


#: The writer this process forked and has not joined yet. It is
#: process-wide because a planned crash and interpreter exit must join
#: it with no manager at hand.
_writer: SnapshotWriter | None = None


def join_writer() -> None:
    """Wait for this process's in-flight writer, if any; raises
    :class:`RecoveryError` if it exited non-zero."""
    if _writer is not None:
        _writer.join()


def write_snapshot(
    directory: str | Path,
    iteration: int,
    dump: Callable[[], bytes],
    keep: int | None = None,
) -> SnapshotWriter:
    """Publish the snapshot of ``iteration`` from a forked writer.

    Joins the previous writer first, then runs the
    ``recovery.pre_snapshot`` barrier, forks, runs the
    ``recovery.post_snapshot`` barrier and returns the writer's handle.
    The writer calls ``dump()`` on its copy-on-write image of this
    process, so the payload is what ``dump()`` returns here and now.
    It publishes it (:func:`_publish`), prunes the directory to the
    ``keep`` newest snapshots (no pruning with ``None``) and exits.

    The writer only pickles and writes files. It runs no barrier (it
    clears the inherited crash plan first), no ``atexit`` handler and no
    import, and it flushes no inherited Python buffer, so it cannot
    append to the WAL or the segment. Its ``gc`` is off, so pickling
    does not copy every page for the collector's headers. It never
    enters BLAS and takes no lock another thread can hold, which is why
    forking beside numpy's idle BLAS threads cannot deadlock it, and why
    Python 3.12's warning about ``fork`` in a threaded process is
    filtered here.
    """
    global _writer
    join_writer()
    crash_point("recovery.pre_snapshot")
    path = snapshot_path(directory, iteration)
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", _FORK_WARNING, DeprecationWarning)
        pid = os.fork()
    if pid == 0:
        _write_and_exit(path, dump, keep)
    writer = _writer = SnapshotWriter(pid, iteration, path)
    crash_point("recovery.post_snapshot")
    return writer


def _write_and_exit(path: Path, dump: Callable[[], bytes], keep: int | None) -> NoReturn:
    """The writer process: status 0 only if it published (and pruned)."""
    status = 1
    try:
        install_crash_plan(None)
        gc.disable()
        _publish(path, dump())
        if keep is not None:
            prune_snapshots(path.parent, keep)
        status = 0
    except BaseException as exc:
        os.write(2, f"repro: snapshot writer for {path.name} failed: {exc!r}\n".encode())
        raise
    finally:
        os._exit(status)


def _publish(path: Path, payload: bytes) -> None:
    """Atomically publish ``payload`` as the snapshot file ``path``."""
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    blob = _MAGIC + struct.pack(">I", zlib.crc32(payload)) + payload
    with open(tmp, "wb") as file:
        file.write(blob)
        file.flush()
        os.fsync(file.fileno())
    os.replace(tmp, path)


def _reap_at_exit() -> None:
    """Wait for an in-flight writer at interpreter exit; report, never raise."""
    try:
        join_writer()
    except (RecoveryError, OSError) as exc:
        sys.stderr.write(f"repro: {exc}\n")


before_planned_crash(join_writer)
atexit.register(_reap_at_exit)


def read_snapshot(path: str | Path) -> bytes | None:
    """The validated payload, or ``None`` if the file is unusable."""
    file = Path(path)
    try:
        blob = file.read_bytes()
    except OSError:
        return None
    header = len(_MAGIC) + 4
    if len(blob) < header or not blob.startswith(_MAGIC):
        return None
    (crc,) = struct.unpack(">I", blob[len(_MAGIC):header])
    payload = blob[header:]
    if zlib.crc32(payload) != crc:
        return None
    return payload


def list_snapshots(directory: str | Path) -> list[tuple[int, Path]]:
    """(iteration, path) of every snapshot file, newest first."""
    found: list[tuple[int, Path]] = []
    root = Path(directory)
    if not root.is_dir():
        return found
    for entry in root.iterdir():
        match = _NAME_RE.match(entry.name)
        if match is not None:
            found.append((int(match.group(1)), entry))
    found.sort(key=lambda pair: pair[0], reverse=True)
    return found


def prune_snapshots(directory: str | Path, keep: int) -> int:
    """Remove all but the ``keep`` newest snapshots; returns removals."""
    if keep < 1:
        raise ValueError("keep must be >= 1")
    removed = 0
    for _, path in list_snapshots(directory)[keep:]:
        path.unlink(missing_ok=True)
        removed += 1
    return removed


def append_chunk(path: str | Path, payload: bytes) -> int:
    """Durably append ``payload`` as one framed chunk; returns its size.

    The chunk is flushed and fsynced before this returns, so a snapshot
    published afterwards never names segment bytes a crash can lose.
    """
    frame = _CHUNK_HEADER.pack(len(payload), zlib.crc32(payload)) + payload
    with open(path, "ab") as file:
        file.write(frame)
        file.flush()
        os.fsync(file.fileno())
    return len(frame)


def read_chunks(path: str | Path, length: int) -> list[bytes] | None:
    """The chunk payloads of the segment's first ``length`` bytes.

    ``None`` when the file is shorter than ``length``, a frame runs past
    it, or a checksum fails: the prefix is not the one a snapshot named.
    """
    try:
        with open(path, "rb") as file:
            raw = file.read(length)
    except OSError:
        return None
    if len(raw) != length:
        return None
    chunks: list[bytes] = []
    offset = 0
    while offset < length:
        if offset + _CHUNK_HEADER.size > length:
            return None
        size, crc = _CHUNK_HEADER.unpack_from(raw, offset)
        start = offset + _CHUNK_HEADER.size
        offset = start + size
        payload = raw[start:offset]
        if offset > length or zlib.crc32(payload) != crc:
            return None
        chunks.append(payload)
    return chunks


def cut_segment(path: str | Path, length: int) -> None:
    """Cut the segment back to its first ``length`` bytes (creating an
    empty one when missing); ``length`` must not exceed its size."""
    with open(path, "ab") as file:
        if length > file.tell():
            raise ValueError(f"cannot cut {path} of {file.tell()} bytes to {length}")
        file.truncate(length)
