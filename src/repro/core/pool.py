"""Container pool: reuse leases and local caches across dataflows.

Section 6.1's simulator keeps containers alive until the end of their
leased quantum: "Containers that do not have any dataflow operators
scheduled on them are deleted at the end of the leased quantum", and
"allocated containers cache table partitions and indexes read from the
storage service. If the data required as input from the operator are
already in the cache, data transfer is considered to be 0" (LRU
eviction).

This module implements both effects for the service loop:

* a dataflow arriving while idle containers still have paid-for lease
  time reuses them — the remainder of the current quantum is free;
* reused containers keep their LRU disk caches, so inputs read by an
  earlier dataflow transfer in zero time.

Money is accounted *marginally*: each acquisition records how many new
quanta it added to the pool's leases, so per-dataflow costs stay
meaningful while reuse discounts show up naturally.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

from repro.cloud.cache import LRUCache
from repro.cloud.container import ContainerSpec, PAPER_CONTAINER
from repro.cloud.pricing import PricingModel
from repro.explore.hooks import note
from repro.obs import NOOP_OBS, Observation

logger = logging.getLogger(__name__)


@dataclass
class PooledContainer:
    """One live container: lease horizon plus its local cache."""

    container_id: int
    lease_start: float
    lease_end: float
    busy_until: float
    cache: LRUCache
    quanta_paid: int = 0

    def idle_at(self, time: float) -> bool:
        return self.busy_until <= time + 1e-9

    def alive_at(self, time: float) -> bool:
        return self.lease_end > time + 1e-9


@dataclass
class PoolStats:
    """Aggregate reuse/caching effectiveness of one pool."""

    containers_created: int = 0
    containers_reused: int = 0
    containers_expired: int = 0
    containers_crashed: int = 0
    quanta_paid: int = 0
    quanta_saved_by_reuse: float = 0.0

    @property
    def reuse_rate(self) -> float:
        total = self.containers_created + self.containers_reused
        return self.containers_reused / total if total else 0.0


class ContainerPool:
    """Leases, reuses and expires containers for consecutive dataflows."""

    def __init__(
        self,
        pricing: PricingModel,
        spec: ContainerSpec = PAPER_CONTAINER,
        max_containers: int = 100,
        obs: Observation | None = None,
    ) -> None:
        if max_containers <= 0:
            raise ValueError("max_containers must be positive")
        self.pricing = pricing
        self.spec = spec
        self.max_containers = max_containers
        self.stats = PoolStats()
        self.obs = obs if obs is not None else NOOP_OBS
        self._containers: dict[int, PooledContainer] = {}
        self._next_id = 0

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._containers)

    def live_containers(self, time: float) -> list[PooledContainer]:
        return [c for c in self._containers.values() if c.alive_at(time)]

    def expire_idle(self, time: float) -> int:
        """Delete idle containers whose lease has run out at ``time``.

        Their caches are lost with them ("After deleting a particular VM,
        the files stored in its local disk cannot be recovered").
        """
        expired = [
            cid
            for cid, c in self._containers.items()
            if c.idle_at(time) and not c.alive_at(time)
        ]
        for cid in expired:
            del self._containers[cid]
        self.stats.containers_expired += len(expired)
        if expired and self.obs.enabled:
            self.obs.metrics.counter("pool/containers_expired").inc(len(expired))
        return len(expired)

    # ------------------------------------------------------------------
    def acquire(self, count: int, time: float) -> list[PooledContainer]:
        """Get ``count`` containers at ``time``, reusing idle live ones.

        Idle containers with the most remaining lease (and the fullest
        caches) are reused first; the rest are freshly leased for one
        quantum aligned to the global grid.
        """
        if count <= 0:
            raise ValueError("count must be positive")
        note("pool.acquire")
        self.expire_idle(time)
        reusable = sorted(
            (c for c in self._containers.values() if c.idle_at(time) and c.alive_at(time)),
            key=lambda c: (-(c.lease_end - time), -c.cache.used_mb),
        )
        chosen = reusable[:count]
        self.stats.containers_reused += len(chosen)
        for c in chosen:
            self.stats.quanta_saved_by_reuse += self.pricing.quanta(c.lease_end - time)
        if self.obs.enabled:
            self.obs.metrics.counter("pool/containers_reused").inc(len(chosen))
            self.obs.metrics.counter("pool/containers_created").inc(count - len(chosen))
            self.obs.metrics.gauge("pool/live_containers").set(
                float(len(self._containers) + count - len(chosen))
            )
        while len(chosen) < count:
            if len(self._containers) >= self.max_containers:
                raise RuntimeError(
                    f"pool exhausted: {self.max_containers} containers live"
                )
            # Created *unleased*: nothing is charged until the container
            # is first occupied (elastic allocation: a container whose
            # first operator starts three quanta into the dataflow is
            # only leased from that quantum on).
            container = PooledContainer(
                container_id=self._next_id,
                lease_start=time,
                lease_end=time,
                busy_until=time,
                cache=LRUCache(capacity_mb=self.spec.disk_mb),
            )
            self.stats.containers_created += 1
            self._next_id += 1
            self._containers[container.container_id] = container
            chosen.append(container)
        return chosen

    def note_crash(self, container: PooledContainer, count: int = 1) -> None:
        """Record that a container crashed and was respawned in place.

        The replacement inherits the lease bookkeeping (the simulator
        bills the forfeited quantum separately) but its local disk is
        empty: "After deleting a particular VM, the files stored in its
        local disk cannot be recovered."
        """
        if count <= 0:
            raise ValueError("count must be positive")
        container.cache = LRUCache(capacity_mb=self.spec.disk_mb)
        self.stats.containers_crashed += count
        if self.obs.enabled:
            self.obs.metrics.counter("pool/containers_crashed").inc(count)
        logger.debug(
            "container %d crashed x%d; cache dropped", container.container_id, count
        )

    def occupy(self, container: PooledContainer, start: float, until: float) -> int:
        """Mark a container busy for [start, until]; extend its lease.

        A container's first occupation starts its lease at the quantum
        boundary at or before ``start``. Returns the number of *newly
        paid* quanta — zero while the work fits already-paid lease.
        """
        if until < start - 1e-9:
            raise ValueError("occupation cannot end before it starts")
        if until < container.busy_until - 1e-9:
            raise ValueError("occupation cannot end before existing work")
        tq = self.pricing.quantum_seconds
        if container.lease_end <= container.lease_start + 1e-9:
            # First occupation: the lease clock starts here — quantum
            # boundaries are per-container, from its own launch (a VM
            # allocated mid-wallclock-minute is not billed for the part
            # of the minute before it existed).
            container.lease_start = start
            container.lease_end = start
        container.busy_until = max(container.busy_until, until)
        quanta_needed = max(
            1, math.ceil((until - container.lease_start) / tq - 1e-9)
        )
        needed_end = container.lease_start + quanta_needed * tq
        added = 0
        if needed_end > container.lease_end + 1e-9:
            added = int(round((needed_end - container.lease_end) / tq))
            container.lease_end = needed_end
        container.quanta_paid += added
        self.stats.quanta_paid += added
        if added and self.obs.enabled:
            self.obs.metrics.counter("pool/quanta_paid").inc(added)
        return added
