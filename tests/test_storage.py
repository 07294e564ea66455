"""Unit tests for the cloud storage service and its billing integral."""

import pytest

from repro.cloud.pricing import PAPER_PRICING
from repro.cloud.storage import CloudStorage


@pytest.fixture
def storage():
    return CloudStorage(PAPER_PRICING)


class TestLifecycle:
    def test_put_get(self, storage):
        storage.put("t/a", 100.0, time=0.0)
        obj = storage.get("t/a", time=10.0)
        assert obj.size_mb == 100.0
        assert storage.exists("t/a")

    def test_get_missing_raises(self, storage):
        with pytest.raises(KeyError):
            storage.get("nope", time=0.0)

    def test_delete_stops_existence(self, storage):
        storage.put("t/a", 100.0, time=0.0)
        storage.delete("t/a", time=60.0)
        assert not storage.exists("t/a")
        with pytest.raises(KeyError):
            storage.delete("t/a", time=61.0)

    def test_overwrite_bumps_version(self, storage):
        storage.put("t/a", 100.0, time=0.0)
        storage.put("t/a", 50.0, time=60.0)
        assert storage.version_of("t/a") == 1
        assert storage.size_of("t/a") == 50.0

    def test_negative_size_rejected(self, storage):
        with pytest.raises(ValueError):
            storage.put("t/a", -1.0, time=0.0)

    def test_clock_cannot_go_backwards(self, storage):
        storage.put("t/a", 100.0, time=100.0)
        with pytest.raises(ValueError):
            storage.put("t/b", 1.0, time=50.0)


class TestBilling:
    def test_paper_rate_integral(self, storage):
        # 100 MB stored for 10 quanta at $1e-4/MB/quantum = $0.1.
        storage.put("t/a", 100.0, time=0.0)
        cost = storage.storage_cost(until=10 * 60.0)
        assert cost == pytest.approx(0.1)

    def test_deletion_stops_accrual(self, storage):
        storage.put("t/a", 100.0, time=0.0)
        storage.delete("t/a", time=5 * 60.0)
        cost = storage.storage_cost(until=100 * 60.0)
        assert cost == pytest.approx(0.05)

    def test_two_objects_accrue_independently(self, storage):
        storage.put("t/a", 100.0, time=0.0)
        storage.put("t/b", 100.0, time=5 * 60.0)
        cost = storage.storage_cost(until=10 * 60.0)
        assert cost == pytest.approx(0.1 + 0.05)

    def test_cost_is_monotone_in_time(self, storage):
        storage.put("t/a", 10.0, time=0.0)
        c1 = storage.storage_cost(until=60.0)
        c2 = storage.storage_cost(until=120.0)
        assert c2 >= c1

    def test_traffic_counters(self, storage):
        storage.put("t/a", 100.0, time=0.0)
        storage.get("t/a", time=1.0)
        storage.get("t/a", time=2.0)
        assert storage.bytes_uploaded_mb == pytest.approx(100.0)
        assert storage.bytes_downloaded_mb == pytest.approx(200.0)

    def test_reput_after_delete_keeps_the_recomputed_integral(self, storage):
        # The deleted version must stay ended at its own delete time; a
        # re-put that rewrote it would bill the gap between the two.
        storage.put("t/a", 100.0, time=0.0)
        storage.delete("t/a", time=60.0)
        storage.put("t/a", 100.0, time=600.0)
        storage.storage_cost(until=900.0)
        assert storage.accounted_mb_seconds == pytest.approx(100.0 * (60.0 + 300.0))
        assert storage.recompute_mb_seconds() == pytest.approx(
            storage.accounted_mb_seconds
        )

    def test_live_total_is_summed_only_when_the_clock_moves(self, storage, monkeypatch):
        sums = 0
        live_mb = CloudStorage.live_mb

        def counting_live_mb(store):
            nonlocal sums
            sums += 1
            return live_mb.fget(store)

        monkeypatch.setattr(CloudStorage, "live_mb", property(counting_live_mb))
        for k in range(5):
            storage.put(f"t/{k}", 10.0, time=0.0)
        storage.delete("t/0", time=0.0)
        storage.get("t/1", time=0.0)
        assert sums == 0
        storage.put("t/5", 10.0, time=60.0)
        assert sums == 1
        assert storage.accounted_mb_seconds == 40.0 * 60.0
        assert storage.recompute_mb_seconds() == storage.accounted_mb_seconds


class TestSnapshot:
    def test_snapshot_reflects_history(self, storage):
        storage.put("t/a", 100.0, time=0.0)
        storage.put("t/b", 50.0, time=100.0)
        storage.delete("t/a", time=200.0)
        assert storage.snapshot(50.0) == {"t/a": 100.0}
        assert storage.snapshot(150.0) == {"t/a": 100.0, "t/b": 50.0}
        assert storage.snapshot(250.0) == {"t/b": 50.0}

    def test_live_paths(self, storage):
        storage.put("t/a", 1.0, time=0.0)
        storage.put("t/b", 1.0, time=0.0)
        storage.delete("t/a", time=1.0)
        assert storage.live_paths() == ["t/b"]
