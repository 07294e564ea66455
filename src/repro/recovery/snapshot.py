"""Checksummed snapshots with atomic rename, and the append-only segment.

A snapshot is the pickled full tuning state of a run at one iteration
boundary (service + loop state + the process-global knapsack memo),
prefixed with a magic marker and a CRC32 of the payload. Writes go to a
``.tmp`` sibling first and are published with ``os.replace``: a crash
mid-write leaves at worst a stale temp file, never a half-written
snapshot under the real name. Readers validate magic + checksum and
report corruption as "snapshot unusable" rather than an exception, so
the resume path can fall back to an older snapshot (or a cold replay).

A *segment* is an append-only file of chunks, each framed as
``<length:u32 BE> <crc32:u32 BE> <payload>``. A snapshot names the
segment prefix it rests on by its byte length; reading that prefix
back either yields every chunk payload in it or, when the prefix is
short, torn or fails a checksum, ``None``.
"""

from __future__ import annotations

import os
import re
import struct
import zlib
from pathlib import Path

from repro.recovery.hooks import crash_point

_MAGIC = b"RPSN1\n"
_CHUNK_HEADER = struct.Struct(">II")
_NAME_RE = re.compile(r"^snapshot-(\d{8})\.ckpt$")


def snapshot_path(directory: str | Path, iteration: int) -> Path:
    """Canonical file name of the snapshot taken at ``iteration``."""
    return Path(directory) / f"snapshot-{iteration:08d}.ckpt"


def write_snapshot(directory: str | Path, iteration: int, payload: bytes) -> Path:
    """Atomically publish ``payload`` as the snapshot of ``iteration``."""
    final = snapshot_path(directory, iteration)
    tmp = final.with_suffix(".tmp")
    crash_point("recovery.pre_snapshot")
    blob = _MAGIC + struct.pack(">I", zlib.crc32(payload)) + payload
    with open(tmp, "wb") as file:
        file.write(blob)
        file.flush()
        os.fsync(file.fileno())
    os.replace(tmp, final)
    crash_point("recovery.post_snapshot")
    return final


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
