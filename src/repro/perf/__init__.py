"""Hot-path memoisation primitives: bounded memo tables + cache stats.

The optimization layer (incremental gain evaluation, knapsack solution
reuse, cached topological orders) shares two building blocks:

* :class:`CacheStats` — hit/miss/invalidation counters that every memo
  layer maintains unconditionally (three integer increments) and
  publishes into the :class:`~repro.obs.metrics.MetricsRegistry` of an
  enabled observation, so ``--metrics-out`` artifacts show exactly how
  the caches behaved during a run.
* :class:`LRUMemo` — a bounded mapping with least-recently-used
  eviction. Entries are pure functions of their keys, so a hit returns
  a value byte-identical to what a recompute would produce; the bound
  only affects speed, never results.

Like :mod:`repro.core.numeric` and :mod:`repro.obs`, this module is a
dependency-free leaf (pure stdlib): any layer may import it without
creating a package cycle.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable, Generic, Hashable, Protocol, TypeVar

V = TypeVar("V")


class _CounterLike(Protocol):
    def set(self, total: float) -> None: ...


class _RegistryLike(Protocol):
    def counter(self, name: str) -> _CounterLike: ...


class CacheStats:
    """Hit/miss/invalidation counters of one memo layer.

    The counters are plain integers so the instrumented hot paths pay
    one increment per lookup regardless of whether observability is
    enabled; :meth:`publish` writes the running totals through to a
    metrics registry (``<prefix>/hits`` etc.) at journal points.
    """

    __slots__ = ("hits", "misses", "invalidations")

    def __init__(self) -> None:
        self.hits = 0
        self.misses = 0
        self.invalidations = 0

    def hit(self, count: int = 1) -> None:
        self.hits += count

    def miss(self) -> None:
        self.misses += 1

    def invalidate(self, count: int = 1) -> None:
        self.invalidations += count

    def reset(self) -> None:
        """Zero all counters (process-global caches reset per run)."""
        self.hits = 0
        self.misses = 0
        self.invalidations = 0

    def restore(self, snapshot: dict[str, int]) -> None:
        """Set the counters to a previously captured :meth:`snapshot`.

        Used by crash recovery: process-global cache counters feed the
        exported ``cache/*`` metrics, so a resumed run must restart them
        exactly where the crashed process left off.
        """
        self.hits = int(snapshot["hits"])
        self.misses = int(snapshot["misses"])
        self.invalidations = int(snapshot["invalidations"])

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    def hit_rate(self) -> float:
        """Fraction of lookups served from cache (0.0 when unused)."""
        total = self.lookups
        return self.hits / total if total else 0.0

    def publish(self, registry: _RegistryLike, prefix: str) -> None:
        """Write the totals into ``registry`` as ``<prefix>/...`` counters."""
        registry.counter(f"{prefix}/hits").set(float(self.hits))
        registry.counter(f"{prefix}/misses").set(float(self.misses))
        registry.counter(f"{prefix}/invalidations").set(float(self.invalidations))

    def snapshot(self) -> dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "invalidations": self.invalidations,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"CacheStats(hits={self.hits}, misses={self.misses}, "
            f"invalidations={self.invalidations})"
        )


class LRUMemo(Generic[V]):
    """A bounded key -> value memo with LRU eviction and stats.

    Values must be pure functions of their keys (never mutated by
    callers): under that contract a bounded memo is semantically
    invisible — eviction can only cause recomputation, not different
    results.
    """

    __slots__ = ("maxsize", "stats", "_data")

    def __init__(self, maxsize: int, stats: CacheStats | None = None) -> None:
        if maxsize <= 0:
            raise ValueError("maxsize must be positive")
        self.maxsize = maxsize
        self.stats = stats if stats is not None else CacheStats()
        self._data: OrderedDict[Hashable, V] = OrderedDict()

    def __len__(self) -> int:
        return len(self._data)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._data

    def get(self, key: Hashable) -> V | None:
        """The cached value, refreshed as most-recently used; else None."""
        value = self._data.get(key)
        if value is None:
            self.stats.miss()
            return None
        self._data.move_to_end(key)
        self.stats.hit()
        return value

    def put(self, key: Hashable, value: V) -> None:
        while len(self._data) >= self.maxsize:
            self._data.popitem(last=False)
        self._data[key] = value

    def get_or_compute(self, key: Hashable, compute: Callable[[], V]) -> V:
        """Cached value for ``key``, computing (and storing) on miss."""
        value = self.get(key)
        if value is None:
            value = compute()
            self.put(key, value)
        return value

    def invalidate(self, key: Hashable) -> bool:
        """Drop one entry; returns whether it existed."""
        existed = self._data.pop(key, None) is not None
        if existed:
            self.stats.invalidate()
        return existed

    def clear(self) -> None:
        count = len(self._data)
        self._data.clear()
        if count:
            self.stats.invalidate(count)

    def export_entries(self) -> list[tuple[Hashable, V]]:
        """All entries in LRU order (oldest first), for snapshotting."""
        return list(self._data.items())

    def restore_entries(self, entries: list[tuple[Hashable, V]]) -> None:
        """Replace the contents with ``entries`` (oldest first).

        Counts as neither hits nor misses nor invalidations: restoring
        a snapshot must leave the stats exactly as captured.
        """
        self._data.clear()
        for key, value in entries:
            self._data[key] = value
        while len(self._data) > self.maxsize:
            self._data.popitem(last=False)
