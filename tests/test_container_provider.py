"""Unit tests for container specs and leases."""

import pytest

from repro.cloud.container import Container, ContainerSpec, PAPER_CONTAINER
from repro.cloud.pricing import PAPER_PRICING


class TestContainerSpec:
    def test_paper_container_values(self):
        assert PAPER_CONTAINER.cpus == 1
        assert PAPER_CONTAINER.disk_mb == pytest.approx(100 * 1024.0)
        assert PAPER_CONTAINER.disk_bw_mb_s == pytest.approx(250.0)
        assert PAPER_CONTAINER.net_bw_mb_s == pytest.approx(125.0)  # 1 Gbps

    def test_transfer_seconds(self):
        assert PAPER_CONTAINER.transfer_seconds(125.0) == pytest.approx(1.0)

    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            ContainerSpec(cpus=0)
        with pytest.raises(ValueError):
            ContainerSpec(net_bw_mb_s=0)
        with pytest.raises(ValueError):
            PAPER_CONTAINER.transfer_seconds(-1.0)


class TestLease:
    def test_extend_lease(self):
        c = Container(container_id=0, lease_start=0.0)
        added = c.extend_lease_to(61.0, PAPER_PRICING)
        assert added == 2
        assert c.lease_end(PAPER_PRICING) == pytest.approx(120.0)

    def test_extend_is_idempotent_within_quantum(self):
        c = Container(container_id=0, lease_start=0.0)
        c.extend_lease_to(30.0, PAPER_PRICING)
        added = c.extend_lease_to(59.0, PAPER_PRICING)
        assert added == 0
        assert c.leased_quanta == 1

    def test_cannot_lease_into_past(self):
        c = Container(container_id=0, lease_start=100.0)
        with pytest.raises(ValueError):
            c.extend_lease_to(50.0, PAPER_PRICING)

    def test_quantum_boundary(self):
        c = Container(container_id=0, lease_start=0.0)
        assert c.quantum_boundary_after(0.0, PAPER_PRICING) == 0.0
        assert c.quantum_boundary_after(1.0, PAPER_PRICING) == 60.0
        assert c.quantum_boundary_after(60.0, PAPER_PRICING) == 60.0
        assert c.quantum_boundary_after(61.0, PAPER_PRICING) == 120.0

    def test_utilization(self):
        c = Container(container_id=0, lease_start=0.0)
        c.extend_lease_to(60.0, PAPER_PRICING)
        c.busy_seconds = 30.0
        assert c.utilization(PAPER_PRICING) == pytest.approx(0.5)

