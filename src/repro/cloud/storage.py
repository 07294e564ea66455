"""Cloud storage service: persistent object store with byte-time billing.

The storage service holds table partitions, indexes, and dataflow outputs.
It charges per MB per quantum (``Mst``); the simulator computes the bill by
integrating stored bytes over time ("The storage of the cloud is computed
by counting the number of bytes transferred and charging appropriately
over time", Section 6.1). Partition updates create new versions and
invalidate indexes built on old versions (Section 3, "Data Model").
"""

from __future__ import annotations

import logging
from bisect import bisect_left
from dataclasses import dataclass

from repro.cloud.pricing import PricingModel
from repro.faults.injector import FaultInjector, TransientStorageError
from repro.recovery.hooks import crash_point

logger = logging.getLogger(__name__)


@dataclass
class StoredObject:
    """One object in the storage service."""

    path: str
    size_mb: float
    created_at: float
    version: int = 0
    deleted_at: float | None = None

    @property
    def live(self) -> bool:
        return self.deleted_at is None


class CloudStorage:
    """Persistent object store with per-MB-per-quantum cost accounting.

    The store keeps full history (including deleted objects) so the billing
    integral and experiment time series can be recomputed exactly.
    """

    def __init__(
        self,
        pricing: PricingModel,
        injector: FaultInjector | None = None,
    ) -> None:
        self._pricing = pricing
        # A zero-rate injector never draws: the null object of faults.
        self._injector = injector if injector is not None else FaultInjector()
        self._objects: dict[str, StoredObject] = {}
        self._history: list[StoredObject] = []
        self._versions: dict[str, int] = {}
        # The sizes of the live objects in ``_objects`` order (each path's
        # first put), beside the ranks of their paths in that order:
        # ``live_mb`` sums the same floats in the same order as a walk of
        # ``_objects`` would, without visiting the dead ones.
        self._rank: dict[str, int] = {}
        self._live_ranks: list[int] = []
        self._live_sizes: list[float] = []
        # Running integral of MB*seconds up to _accounted_until.
        self._mb_seconds: float = 0.0
        self._accounted_until: float = 0.0
        self.bytes_uploaded_mb: float = 0.0
        self.bytes_downloaded_mb: float = 0.0

    # ------------------------------------------------------------------
    # Object lifecycle
    # ------------------------------------------------------------------
    def put(self, path: str, size_mb: float, time: float) -> StoredObject:
        """Store (or overwrite) an object, advancing the billing clock.

        Raises :class:`TransientStorageError` when the configured fault
        injector loses the write; nothing is stored or billed.
        """
        if size_mb < 0:
            raise ValueError("size_mb must be non-negative")
        if self._injector.storage_put_fails():
            logger.debug("storage put lost: %s (%.1f MB)", path, size_mb)
            raise TransientStorageError("put", path)
        crash_point("storage.pre_put")
        self._advance(time)
        previous = self._objects.get(path)
        if previous is None:
            rank = self._rank[path] = len(self._objects)
            self._live_ranks.append(rank)
            self._live_sizes.append(size_mb)
        else:
            rank = self._rank[path]
            at = bisect_left(self._live_ranks, rank)
            if previous.live:
                # An already-deleted version keeps its own delete time.
                previous.deleted_at = time
                self._live_sizes[at] = size_mb
            else:
                self._live_ranks.insert(at, rank)
                self._live_sizes.insert(at, size_mb)
        version = self._versions.get(path, -1) + 1
        self._versions[path] = version
        obj = StoredObject(path=path, size_mb=size_mb, created_at=time, version=version)
        self._objects[path] = obj
        self._history.append(obj)
        self.bytes_uploaded_mb += size_mb
        crash_point("storage.post_put")
        return obj

    def get(self, path: str, time: float) -> StoredObject:
        """Read an object (records download traffic for accounting)."""
        obj = self._objects.get(path)
        if obj is None or not obj.live:
            raise KeyError(f"no live object at {path!r}")
        self._advance(time)
        self.bytes_downloaded_mb += obj.size_mb
        return obj

    def exists(self, path: str) -> bool:
        obj = self._objects.get(path)
        return obj is not None and obj.live

    def size_of(self, path: str) -> float:
        obj = self._objects.get(path)
        if obj is None or not obj.live:
            raise KeyError(f"no live object at {path!r}")
        return obj.size_mb

    def delete(self, path: str, time: float) -> None:
        """Delete an object; storage charges stop accruing from ``time``.

        Raises :class:`TransientStorageError` when the fault injector
        drops the request: the object lingers (and keeps billing) until
        a later retry succeeds.
        """
        obj = self._objects.get(path)
        if obj is None or not obj.live:
            raise KeyError(f"no live object at {path!r}")
        if self._injector.storage_delete_fails():
            logger.debug("storage delete lost: %s", path)
            raise TransientStorageError("delete", path)
        crash_point("storage.pre_delete")
        self._advance(time)
        obj.deleted_at = time
        at = bisect_left(self._live_ranks, self._rank[path])
        del self._live_ranks[at]
        del self._live_sizes[at]

    def version_of(self, path: str) -> int:
        obj = self._objects.get(path)
        if obj is None or not obj.live:
            raise KeyError(f"no live object at {path!r}")
        return obj.version

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------
    @property
    def accounted_until(self) -> float:
        """The current position of the billing clock, in seconds."""
        return self._accounted_until

    @property
    def live_mb(self) -> float:
        """Total size of all live objects."""
        return sum(self._live_sizes)

    @property
    def live_count(self) -> int:
        """Number of live objects (an integer digest; the cross-tenant
        isolation oracle compares it without touching float billing)."""
        return len(self._live_sizes)

    @property
    def accounted_mb_seconds(self) -> float:
        """The running MB·seconds billing integral (read-only)."""
        return self._mb_seconds

    def live_paths(self) -> list[str]:
        return [p for p, o in self._objects.items() if o.live]

    def _advance(self, time: float) -> None:
        """Integrate stored bytes forward to ``time``.

        The live total is summed only when the clock moves: at ``dt == 0``
        the product is ``0.0``, and adding it leaves the non-negative
        integral bit-identical.
        """
        if time < self._accounted_until - 1e-9:
            raise ValueError(
                f"storage clock moved backwards: {time} < {self._accounted_until}"
            )
        dt = max(0.0, time - self._accounted_until)
        if dt > 0.0:
            self._mb_seconds += self.live_mb * dt
        self._accounted_until = max(self._accounted_until, time)

    def storage_cost(self, until: float) -> float:
        """Dollar cost of storage accrued from t=0 through ``until``."""
        self._advance(until)
        mb_quanta = self._mb_seconds / self._pricing.quantum_seconds
        return mb_quanta * self._pricing.storage_price_mb_quantum

    def recompute_mb_seconds(self) -> float:
        """Re-integrate the billing history from scratch (invariant check).

        Walks the full object history and integrates each object's live
        span against the billing clock position — the conservation
        property the chaos soak asserts: the running integral maintained
        incrementally by :meth:`_advance` must equal the recomputation
        (money spent == stored MB × time × price, no interval counted
        twice or dropped across crash/recovery).
        """
        total = 0.0
        until = self._accounted_until
        for obj in self._history:
            start = min(obj.created_at, until)
            end = until if obj.deleted_at is None else min(obj.deleted_at, until)
            total += obj.size_mb * max(0.0, end - start)
        return total

    def snapshot(self, time: float) -> dict[str, float]:
        """Map of live path -> size at ``time`` (history-based, read-only)."""
        sizes: dict[str, float] = {}
        for obj in self._history:
            dead = obj.deleted_at is not None and obj.deleted_at <= time
            if obj.created_at <= time and not dead:
                sizes[obj.path] = obj.size_mb
        return sizes
