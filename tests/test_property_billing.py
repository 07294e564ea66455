"""Property-based tests for billing invariants (pool, storage, schedules)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cloud.pricing import PAPER_PRICING
from repro.cloud.storage import CloudStorage
from repro.core.pool import ContainerPool
from repro.faults.injector import FaultInjector, FaultProfile, TransientStorageError


@given(
    jobs=st.lists(
        st.tuples(
            st.floats(min_value=0.0, max_value=600.0),   # start offset
            st.floats(min_value=1.0, max_value=300.0),   # duration
        ),
        min_size=1,
        max_size=20,
    )
)
@settings(max_examples=60, deadline=None)
def test_property_pool_billing_covers_all_work(jobs):
    """Whatever the job sequence, every occupied second is inside a paid
    lease, and the bill never exceeds one quantum per job beyond the
    total work."""
    pool = ContainerPool(PAPER_PRICING, max_containers=64)
    clock = 0.0
    total_work = 0.0
    for offset, duration in sorted(jobs):
        clock = max(clock, offset)
        [container] = pool.acquire(1, time=clock)
        start = max(clock, container.busy_until)
        pool.occupy(container, start=start, until=start + duration)
        total_work += duration
        # The lease covers the occupation.
        assert container.lease_start <= start + 1e-9
        assert container.lease_end >= start + duration - 1e-9
    paid_seconds = pool.stats.quanta_paid * PAPER_PRICING.quantum_seconds
    assert paid_seconds >= total_work - 1e-6
    # At most one extra (partial) quantum per job.
    assert paid_seconds <= total_work + len(jobs) * PAPER_PRICING.quantum_seconds + 1e-6


@given(
    events=st.lists(
        st.tuples(
            st.floats(min_value=0.0, max_value=1000.0),  # time delta
            st.floats(min_value=0.0, max_value=500.0),   # size MB
            st.integers(min_value=0, max_value=5),       # path: reused paths overwrite or re-put
            st.booleans(),                               # delete the path's live object instead
        ),
        min_size=1,
        max_size=25,
    ),
    failure_rate=st.sampled_from([0.0, 0.3]),
    seed=st.integers(min_value=0, max_value=2**16),
)
@settings(max_examples=60, deadline=None)
def test_property_storage_bill_matches_manual_integral(events, failure_rate, seed):
    """The storage bill equals a manually computed byte-time integral
    through overwrites, deletes, re-puts after a delete and injected put
    and delete failures; after every event the maintained live size and
    count equal a walk over the stored objects, bit for bit."""
    injector = FaultInjector(
        FaultProfile(
            storage_put_failure_rate=failure_rate,
            storage_delete_failure_rate=failure_rate,
        ),
        rng=np.random.default_rng(seed),
    )
    storage = CloudStorage(PAPER_PRICING, injector=injector)
    clock = 0.0
    lifetimes = []  # (size, start, end or None)
    live = {}  # path -> position of its live object in lifetimes
    for delta, size, slot, delete in events:
        clock += delta
        path = f"obj{slot}"
        try:
            if not delete:
                storage.put(path, size, time=clock)
                if path in live:
                    lifetimes[live[path]][2] = clock
                live[path] = len(lifetimes)
                lifetimes.append([size, clock, None])
            elif path in live:
                storage.delete(path, time=clock)
                lifetimes[live.pop(path)][2] = clock
        except TransientStorageError:
            pass  # a lost put stores nothing; a failed delete keeps the object
        walked = [o.size_mb for o in storage._objects.values() if o.live]
        assert storage.live_mb == sum(walked)
        assert repr(storage.live_mb) == repr(sum(walked))
        assert storage.live_count == len(walked) == len(live)
    horizon = clock + 100.0
    cost = storage.storage_cost(until=horizon)
    manual = 0.0
    for size, start, end in lifetimes:
        stop = end if end is not None else horizon
        manual += size * (stop - start) / 60.0 * PAPER_PRICING.storage_price_mb_quantum
    assert cost == pytest.approx(manual, rel=1e-6, abs=1e-9)


@given(
    reuse_gap=st.floats(min_value=0.1, max_value=59.0),
    work=st.floats(min_value=1.0, max_value=40.0),
)
@settings(max_examples=40, deadline=None)
def test_property_reuse_within_quantum_is_free(reuse_gap, work):
    """A second job that fits entirely in the first job's final quantum
    adds zero new quanta."""
    pool = ContainerPool(PAPER_PRICING, max_containers=4)
    [c] = pool.acquire(1, time=0.0)
    pool.occupy(c, start=0.0, until=work)
    paid = pool.stats.quanta_paid
    second_start = min(work + reuse_gap, c.lease_end - 1e-6)
    room = c.lease_end - second_start
    if room <= 0.5:
        return  # nothing meaningful fits
    [again] = pool.acquire(1, time=second_start)
    assert again.container_id == c.container_id
    pool.occupy(again, start=second_start, until=second_start + room * 0.5)
    assert pool.stats.quanta_paid == paid
