"""IaaS cloud substrate: pricing, containers, storage, and billing.

This subpackage implements the paper's cloud model (Section 3): homogeneous
containers leased per prepaid time quantum, a persistent storage service
charged per MB per quantum, and per-container LRU disk caches. Elastic
allocation (idle containers deleted at quantum boundaries) lives in
:mod:`repro.core.pool`.
"""

from repro.cloud.cache import CacheStats, LRUCache
from repro.cloud.container import ContainerSpec, PAPER_CONTAINER
from repro.cloud.pricing import PAPER_PRICING, PricingModel
from repro.cloud.storage import CloudStorage, StoredObject

__all__ = [
    "CacheStats",
    "LRUCache",
    "ContainerSpec",
    "PAPER_CONTAINER",
    "PAPER_PRICING",
    "PricingModel",
    "CloudStorage",
    "StoredObject",
]
