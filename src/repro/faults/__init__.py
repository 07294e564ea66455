"""Fault injection and recovery for the execution layer.

The paper's simulator assumes containers are reliable for the duration
of a lease; real IaaS clouds preempt VMs, fail operators transiently,
lose storage writes and slow down individual machines. This package
models those failure classes behind a single seeded :class:`FaultInjector`
(its RNG stream is independent of the workload and simulator streams, so
a zero-rate injector leaves every experiment byte-identical) plus a
:class:`RetryPolicy` implementing exponential backoff with jitter.

Recovery semantics implemented across ``core``/``cloud``:

* failed *dataflow* operators are retried on the same container (or a
  respawned one after a crash) with backoff, up to ``max_attempts``;
* failed *index-build* operators are **not** retried inline — their
  partitions stay unbuilt and re-enter the tuner's candidate pool
  (graceful degradation of tuning, never delayed dataflows);
* failed storage puts leave the index partition unbuilt and unbilled;
  failed deletes leave orphaned objects that are retried later;
* preempted or crashed builds resume from their last checkpoint when
  checkpointing is enabled (``checkpoint_interval_s > 0``).
"""

from repro.faults.injector import (
    FaultInjector,
    FaultKind,
    FaultProfile,
    FaultStats,
    TransientStorageError,
)
from repro.faults.retry import RetryPolicy

__all__ = [
    "FaultInjector",
    "FaultKind",
    "FaultProfile",
    "FaultStats",
    "RetryPolicy",
    "TransientStorageError",
]
