"""Unit tests for container specs."""

import pytest

from repro.cloud.container import ContainerSpec, PAPER_CONTAINER


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
