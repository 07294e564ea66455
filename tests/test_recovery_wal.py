"""Unit tests for the recovery substrate: WAL framing, torn-tail and
corrupted-checksum handling, snapshot atomicity/pruning, crash plans."""

from __future__ import annotations

import os
import zlib

import pytest

from repro.recovery.hooks import (
    CRASH_POINTS,
    CrashPlan,
    SimulatedCrash,
    active_crash_plan,
    crash_point,
    install_crash_plan,
)
from repro.recovery.snapshot import (
    append_chunk,
    cut_segment,
    list_snapshots,
    prune_snapshots,
    read_chunks,
    read_snapshot,
    snapshot_path,
    write_snapshot,
)
from repro.recovery.wal import WriteAheadLog, encode_body, frame_record, scan_wal


@pytest.fixture(autouse=True)
def _no_crash_plan():
    previous = install_crash_plan(None)
    yield
    install_crash_plan(previous)


class TestWalFraming:
    def test_record_bytes_are_pure_function_of_payload(self):
        body = encode_body({"kind": "commit", "t": 1.5, "z": 1, "a": 2})
        assert body == '{"a":2,"kind":"commit","t":1.5,"z":1}'
        frame = frame_record(body)
        data = body.encode("utf-8")
        assert frame == (
            f"{len(data):08x} {zlib.crc32(data):08x} ".encode("ascii")
            + data + b"\n"
        )

    def test_append_then_scan_roundtrips(self, tmp_path):
        path = tmp_path / "wal.jsonl"
        payloads = [{"kind": "commit", "t": float(i), "i": i} for i in range(5)]
        with WriteAheadLog(path) as wal:
            for p in payloads:
                wal.append(p)
            assert wal.count == 5
        scan = scan_wal(path)
        assert not scan.truncated
        assert [r.payload for r in scan.records] == payloads
        assert [r.position for r in scan.records] == list(range(5))

    def test_torn_tail_is_truncated_on_open(self, tmp_path):
        path = tmp_path / "wal.jsonl"
        with WriteAheadLog(path) as wal:
            wal.append({"kind": "a", "t": 0.0})
            wal.append({"kind": "b", "t": 1.0})
        frame = frame_record(encode_body({"kind": "torn", "t": 2.0}))
        with open(path, "ab") as f:
            f.write(frame[: len(frame) // 2])
        assert scan_wal(path).truncated
        with WriteAheadLog(path) as wal:
            assert wal.truncated_tail
            assert [r.payload["kind"] for r in wal.existing] == ["a", "b"]
            wal.append({"kind": "c", "t": 3.0})
        scan = scan_wal(path)
        assert not scan.truncated
        assert [r.payload["kind"] for r in scan.records] == ["a", "b", "c"]

    def test_corrupted_checksum_drops_to_last_good_record(self, tmp_path):
        path = tmp_path / "wal.jsonl"
        with WriteAheadLog(path) as wal:
            for i in range(4):
                wal.append({"kind": "commit", "t": float(i), "i": i})
        # Flip one byte inside record 2's JSON body: its CRC no longer
        # matches, so the valid prefix ends at record 1.
        raw = path.read_bytes()
        lines = raw.splitlines(keepends=True)
        lines[2] = lines[2].replace(b'"i":2', b'"i":9')
        path.write_bytes(b"".join(lines))
        scan = scan_wal(path)
        assert scan.truncated
        assert [r.payload["i"] for r in scan.records] == [0, 1]
        with WriteAheadLog(path) as wal:
            assert wal.truncated_tail
            assert wal.count == 2

    def test_garbage_file_yields_empty_log(self, tmp_path):
        path = tmp_path / "wal.jsonl"
        path.write_bytes(b"not a wal at all\n")
        with WriteAheadLog(path) as wal:
            assert wal.existing == []
            assert wal.truncated_tail


class TestSnapshots:
    def test_write_read_roundtrip(self, tmp_path):
        payload = b"state-bytes" * 100
        path = write_snapshot(tmp_path, 7, payload)
        assert path == snapshot_path(tmp_path, 7)
        assert read_snapshot(path) == payload

    def test_corrupt_snapshot_reads_as_none(self, tmp_path):
        path = write_snapshot(tmp_path, 3, b"payload")
        raw = bytearray(path.read_bytes())
        raw[-1] ^= 0xFF
        path.write_bytes(bytes(raw))
        assert read_snapshot(path) is None

    def test_truncated_snapshot_reads_as_none(self, tmp_path):
        path = write_snapshot(tmp_path, 3, b"payload")
        path.write_bytes(path.read_bytes()[:4])
        assert read_snapshot(path) is None

    def test_no_tmp_file_left_behind(self, tmp_path):
        write_snapshot(tmp_path, 1, b"x")
        leftovers = [p for p in os.listdir(tmp_path) if not p.endswith(".ckpt")]
        assert leftovers == []

    def test_list_and_prune_keep_newest(self, tmp_path):
        for i in (1, 5, 3, 9):
            write_snapshot(tmp_path, i, f"snap-{i}".encode())
        assert [i for i, _ in list_snapshots(tmp_path)] == [9, 5, 3, 1]
        prune_snapshots(tmp_path, keep=2)
        assert [i for i, _ in list_snapshots(tmp_path)] == [9, 5]
        with pytest.raises(ValueError):
            prune_snapshots(tmp_path, keep=0)


class TestSegment:
    PAYLOADS = [b"first chunk", b"", b"third" * 50, bytes(range(256))]

    def _write(self, path):
        ends = []
        for payload in self.PAYLOADS:
            ends.append((ends[-1] if ends else 0) + append_chunk(path, payload))
        return ends

    def test_chunks_round_trip(self, tmp_path):
        path = tmp_path / "segment"
        ends = self._write(path)
        assert ends[-1] == path.stat().st_size
        assert ends[0] == 8 + len(self.PAYLOADS[0])  # length + crc32 header
        assert read_chunks(path, ends[-1]) == self.PAYLOADS
        assert read_chunks(path, 0) == []

    def test_prefix_read_stops_at_the_named_length(self, tmp_path):
        path = tmp_path / "segment"
        ends = self._write(path)
        for k, end in enumerate(ends):
            assert read_chunks(path, end) == self.PAYLOADS[: k + 1]
        # A length inside a frame names no chunk boundary.
        assert read_chunks(path, ends[2] - 1) is None
        assert read_chunks(path, ends[1] + 3) is None

    def test_short_file_reads_as_none(self, tmp_path):
        path = tmp_path / "segment"
        ends = self._write(path)
        path.write_bytes(path.read_bytes()[: ends[-1] - 1])
        assert read_chunks(path, ends[-1]) is None
        assert read_chunks(path, ends[-2]) == self.PAYLOADS[:-1]
        assert read_chunks(tmp_path / "missing", 8) is None

    def test_bad_crc_reads_as_none(self, tmp_path):
        path = tmp_path / "segment"
        ends = self._write(path)
        raw = bytearray(path.read_bytes())
        raw[ends[2] + 8] ^= 0xFF  # first payload byte of the last chunk
        path.write_bytes(bytes(raw))
        assert read_chunks(path, ends[-1]) is None
        assert read_chunks(path, ends[2]) == self.PAYLOADS[:3]

    def test_cut_drops_the_chunks_past_the_length(self, tmp_path):
        path = tmp_path / "segment"
        ends = self._write(path)
        cut_segment(path, ends[1])
        assert path.stat().st_size == ends[1]
        assert read_chunks(path, ends[1]) == self.PAYLOADS[:2]
        # Appends continue from the cut.
        end = ends[1] + append_chunk(path, b"after the cut")
        assert read_chunks(path, end) == [*self.PAYLOADS[:2], b"after the cut"]
        with pytest.raises(ValueError, match="cannot cut"):
            cut_segment(path, end + 1)
        cut_segment(tmp_path / "fresh", 0)
        assert (tmp_path / "fresh").read_bytes() == b""


class TestCrashPlans:
    def test_from_env_parses_the_contract(self):
        assert CrashPlan.from_env({}) is None
        plan = CrashPlan.from_env(
            {"REPRO_CRASH_POINT": "service.step", "REPRO_CRASH_HIT": "3"}
        )
        assert plan.point == "service.step" and plan.hit == 3
        plan = CrashPlan.from_env({"REPRO_CRASH_WAL_RECORD": "17"})
        assert plan.after_wal_record == 17
        plan = CrashPlan.from_env({"REPRO_CRASH_WAL_TORN": "9"})
        assert plan.torn_wal_record == 9

    def test_unknown_point_rejected(self):
        with pytest.raises(ValueError, match="unknown crash point"):
            CrashPlan(point="service.nope")

    def test_soft_plan_fires_at_nth_hit(self):
        install_crash_plan(CrashPlan(point="service.step", hit=3, hard=False))
        crash_point("service.step")
        crash_point("service.step")
        with pytest.raises(SimulatedCrash) as exc:
            crash_point("service.step")
        assert exc.value.barrier == "service.step#3"

    def test_barrier_names_validated_only_when_planned(self):
        crash_point("totally.bogus")  # free path: no plan, no validation
        install_crash_plan(CrashPlan(point="service.step", hard=False))
        with pytest.raises(ValueError, match="not in CRASH_POINTS"):
            crash_point("totally.bogus")

    def test_install_returns_previous_plan(self):
        first = CrashPlan(point="service.step", hard=False)
        assert install_crash_plan(first) is None
        second = CrashPlan(point="tuner.pre_rank", hard=False)
        assert install_crash_plan(second) is first
        assert active_crash_plan() is second

    def test_wal_boundary_kill_fires_on_append(self, tmp_path):
        install_crash_plan(CrashPlan(after_wal_record=2, hard=False))
        wal = WriteAheadLog(tmp_path / "wal.jsonl")
        wal.append({"kind": "a", "t": 0.0})
        with pytest.raises(SimulatedCrash):
            wal.append({"kind": "b", "t": 1.0})
        wal.close()
        # The record itself was durably appended before the kill.
        assert [r.payload["kind"] for r in scan_wal(tmp_path / "wal.jsonl").records] \
            == ["a", "b"]

    def test_torn_kill_leaves_half_a_frame(self, tmp_path):
        install_crash_plan(CrashPlan(torn_wal_record=2, hard=False))
        wal = WriteAheadLog(tmp_path / "wal.jsonl")
        wal.append({"kind": "a", "t": 0.0})
        with pytest.raises(SimulatedCrash):
            wal.append({"kind": "b", "t": 1.0})
        wal.close()
        scan = scan_wal(tmp_path / "wal.jsonl")
        assert scan.truncated
        assert [r.payload["kind"] for r in scan.records] == ["a"]

    def test_registry_is_exhaustive(self):
        assert len(CRASH_POINTS) == len(set(CRASH_POINTS))
        for name in CRASH_POINTS:
            assert name.count(".") >= 1
