"""The write-ahead journal: checksummed JSONL with torn-tail recovery.

Every durable state mutation of a recovery-enabled run is one framed
record::

    <length:08x> <crc32:08x> <json>\\n

where ``length`` is the byte length of the UTF-8 JSON body and ``crc32``
its checksum. The body is serialised by the obs journal's own encoder
(sorted keys, fixed separators), so a record's bytes are a pure function
of its payload — which is what lets resume *verify* replayed mutations
against the log byte for byte.

Opening a log re-scans it record by record: the first frame that is
incomplete (a torn tail from a mid-write crash), fails its checksum, or
does not parse marks the end of the valid prefix, and everything after
it is truncated. Timestamps inside records are **simulated seconds**
supplied by callers — the WAL itself never reads the wall clock (DET01).
"""

from __future__ import annotations

import json
import os
import zlib
from dataclasses import dataclass
from pathlib import Path

from repro.obs.journal import canonical_json
from repro.recovery.hooks import active_crash_plan


def encode_body(payload: dict[str, object]) -> str:
    """Canonical JSON body of one record (sorted keys, no spaces)."""
    return canonical_json(payload)


def frame_record(body: str) -> bytes:
    """The full framed line (length + crc32 + body + newline)."""
    data = body.encode("utf-8")
    return f"{len(data):08x} {zlib.crc32(data):08x} ".encode("ascii") + data + b"\n"


@dataclass(frozen=True)
class WalRecord:
    """One validated record: its 0-based position, body text and payload."""

    position: int
    body: str
    payload: dict[str, object]

    @property
    def kind(self) -> str:
        return str(self.payload.get("kind", ""))


@dataclass(frozen=True)
class WalScan:
    """Result of validating a journal file front to back."""

    records: list[WalRecord]
    valid_bytes: int
    #: Bytes existed past the valid prefix (torn tail or corruption).
    truncated: bool


def scan_wal(path: str | Path) -> WalScan:
    """Validate ``path`` and return its longest valid record prefix."""
    file = Path(path)
    if not file.exists():
        return WalScan(records=[], valid_bytes=0, truncated=False)
    raw = file.read_bytes()
    records: list[WalRecord] = []
    offset = 0
    while offset < len(raw):
        end = raw.find(b"\n", offset)
        if end < 0:
            break  # torn tail: no newline
        line = raw[offset:end]
        record = _parse_line(line, len(records))
        if record is None:
            break  # corrupt frame: stop at the last good record
        records.append(record)
        offset = end + 1
    return WalScan(records=records, valid_bytes=offset, truncated=offset < len(raw))


def _parse_line(line: bytes, position: int) -> WalRecord | None:
    # Frame: 8 hex chars, space, 8 hex chars, space, body.
    if len(line) < 18 or line[8:9] != b" " or line[17:18] != b" ":
        return None
    try:
        length = int(line[:8], 16)
        crc = int(line[9:17], 16)
    except ValueError:
        return None
    data = line[18:]
    if len(data) != length or zlib.crc32(data) != crc:
        return None
    try:
        payload = json.loads(data.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError):
        return None
    if not isinstance(payload, dict):
        return None
    return WalRecord(position=position, body=data.decode("utf-8"), payload=payload)


class WriteAheadLog:
    """Append-only framed journal with crash-plan barriers.

    Opening validates the existing file, truncates any torn/corrupt
    tail, and appends after the last good record. Each append flushes
    to the OS (surviving a killed *process* needs no fsync; surviving a
    killed *host* does, hence the opt-in ``fsync`` flag).
    """

    def __init__(self, path: str | Path, fsync: bool = False) -> None:
        self.path = Path(path)
        self.fsync = fsync
        scan = scan_wal(self.path)
        #: Records that were already durable when the log was opened —
        #: the resume path replays (and verifies) against these.
        self.existing: list[WalRecord] = scan.records
        #: Whether opening had to truncate a torn or corrupt tail.
        self.truncated_tail = scan.truncated
        if scan.truncated:
            with open(self.path, "r+b") as file:
                file.truncate(scan.valid_bytes)
        self._count = len(scan.records)
        self._file = open(self.path, "ab")

    @property
    def count(self) -> int:
        """Total records durably in the file (existing + appended)."""
        return self._count

    def append(self, payload: dict[str, object]) -> int:
        """Durably append one record; returns its 0-based position."""
        return self.append_body(encode_body(payload))

    def append_body(self, body: str) -> int:
        data = frame_record(body)
        ordinal = self._count + 1  # 1-based, for crash-plan boundaries
        plan = active_crash_plan()
        if plan is not None and plan.tears_record(ordinal):
            # Write a torn frame (half the bytes), make it durable, die.
            self._file.write(data[: max(1, len(data) // 2)])
            self._file.flush()
            os.fsync(self._file.fileno())
            plan.trigger(f"wal.torn#{ordinal}")
        self._file.write(data)
        self._file.flush()
        if self.fsync:
            os.fsync(self._file.fileno())
        position = self._count
        self._count = ordinal
        if plan is not None:
            plan.on_wal_record(ordinal)
        return position

    def close(self) -> None:
        if not self._file.closed:
            self._file.close()

    def __enter__(self) -> "WriteAheadLog":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
