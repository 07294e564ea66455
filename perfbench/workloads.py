"""The benchmark's three workloads, as data.

A workload is a fixed deployment plus a client. The deployment is what
``repro.prepare_run`` builds from the *workload seed*: the catalog,
the dataflow shapes and the service's noise and fault streams. The
client is the arrival stream, drawn from the benchmark's ``--seed``;
it is the only input a user of the service controls. One run replays
several arrival streams (episodes) against fresh copies of the
deployment; their number follows from ``--seconds``.

Arrivals come faster than the paper's one per quantum, so the admission
queue fills early and later decisions see a full ``max_queued_gain``
lookahead. At the paper's rate a short run measures the queue filling
up: the knapsack's share of a 20-quantum ``lp_phase`` run then ranged
from 1% to 71% with the arrival seed alone (see README.md).
"""

from __future__ import annotations

from dataclasses import dataclass, field

#: Default workload seed; HELD_OUT_WORKLOAD_SEED is kept for confirming
#: a claim on a deployment that was not used while writing the change.
DEFAULT_WORKLOAD_SEED = 7
HELD_OUT_WORKLOAD_SEED = 8

#: Fault rates and hooks of ``churn``: everything that writes state
#: besides the tuner itself.
_CHURN_OVERRIDES = {
    "operators_per_dataflow": 40,
    "enable_pooling": True,
    "update_interval_s": 600.0,
    "operator_failure_rate": 0.05,
    "container_crash_rate": 0.01,
    "straggler_rate": 0.05,
    "storage_put_failure_rate": 0.1,
    "storage_delete_failure_rate": 0.1,
    "checkpoint_interval_s": 10.0,
    "roi_ledger": True,
    "watchdog_rollback": True,
}


@dataclass(frozen=True)
class Workload:
    name: str
    generator: str
    interleaver: str
    horizon_quanta: float
    mean_interarrival_s: float
    #: Untraced wall seconds of one episode on the reference machine;
    #: a run of ``--seconds`` replays ``round(seconds / episode_s)``.
    episode_s: float
    overrides: dict[str, object] = field(default_factory=dict)
    #: Observation.recording() plus artifact serialisation at the end.
    record_obs: bool = False
    #: RecoveryManager WAL and snapshots in a directory of the checkout.
    recovery: bool = False


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="lp_phase",
            generator="phase",
            interleaver="lp",
            horizon_quanta=20.0,
            mean_interarrival_s=5.0,
            episode_s=14.0,
        ),
        Workload(
            name="online_random",
            generator="random",
            interleaver="online",
            horizon_quanta=60.0,
            mean_interarrival_s=30.0,
            episode_s=11.5,
        ),
        Workload(
            name="churn",
            generator="phase",
            interleaver="online",
            horizon_quanta=180.0,
            mean_interarrival_s=30.0,
            episode_s=13.5,
            overrides=_CHURN_OVERRIDES,
            record_obs=True,
            recovery=True,
        ),
    )
}


def episodes(workload: Workload, seconds: float) -> int:
    """Episodes in a run that should measure about ``seconds``."""
    return max(1, round(seconds / workload.episode_s))
