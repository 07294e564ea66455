"""Containers (VMs): fixed-capacity compute units leased per quantum.

The paper assumes homogeneous VMs with fixed CPU, memory, disk and network
capacity, charged ``Mc`` per quantum; an idle VM is deleted when its
currently leased quantum expires, and files on its local disk are then
lost (Section 3, "Cloud Model"). This module holds the capacity spec;
leases and local disk caches live in :mod:`repro.core.pool`.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class ContainerSpec:
    """Resource capacities of one (homogeneous) container type.

    Attributes:
        cpus: Number of CPU cores (the paper uses 1).
        memory_mb: RAM capacity in MB.
        disk_mb: Local disk capacity in MB (paper: 100 GB).
        disk_bw_mb_s: Local disk bandwidth in MB/s (paper: 250, typical SSD).
        net_bw_mb_s: Network bandwidth in MB/s (paper: 1 Gbps = 125 MB/s).
    """

    cpus: int = 1
    memory_mb: float = 4096.0
    disk_mb: float = 100 * 1024.0
    disk_bw_mb_s: float = 250.0
    net_bw_mb_s: float = 125.0

    def __post_init__(self) -> None:
        if self.cpus <= 0:
            raise ValueError("cpus must be positive")
        if min(self.memory_mb, self.disk_mb, self.disk_bw_mb_s, self.net_bw_mb_s) <= 0:
            raise ValueError("all capacities must be positive")

    def transfer_seconds(self, size_mb: float) -> float:
        """Time to pull ``size_mb`` MB from the storage service."""
        if size_mb < 0:
            raise ValueError("size_mb must be non-negative")
        return size_mb / self.net_bw_mb_s


#: The homogeneous container used throughout the evaluation (Section 6.1).
PAPER_CONTAINER = ContainerSpec()
