"""Differential tests: the simulator's dataflow phase vs the frozen oracle.

``ExecutionSimulator.execute`` walks the dataflow operators in
(start, end) order, stretches each by its noise draw, and leases every
container from the floor of its first start to the ceiling of its last
end. ``tests/differential/oracle.py`` keeps a naive transcription of
that walk. Hypothesis drives random DAGs, container placements and
noisy runtimes; every float of the result must be ``==`` to the
oracle's — bit-identity, not tolerance equality.
"""

from __future__ import annotations

import copy

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.cloud.pricing import PAPER_PRICING
from repro.core.simulator import ExecutionSimulator, _OpFaultTally
from repro.dataflow.graph import Dataflow
from repro.dataflow.operator import Operator
from repro.interleave.lp import InterleavedSchedule
from repro.scheduling.schedule import Assignment, Schedule

from tests.differential.oracle import oracle_dataflow_phase


@st.composite
def _cases(draw):
    """A random dataflow, its (possibly shuffled) assignments and builds."""
    n = draw(st.integers(min_value=1, max_value=10))
    runtimes = draw(
        st.lists(
            st.floats(min_value=1.0, max_value=120.0, allow_nan=False),
            min_size=n, max_size=n,
        )
    )
    cids = draw(st.lists(st.integers(min_value=0, max_value=3), min_size=n, max_size=n))
    starts = draw(
        st.lists(
            st.floats(min_value=0.0, max_value=200.0, allow_nan=False),
            min_size=n, max_size=n,
        )
    )
    edges = draw(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=n - 1),
                st.integers(min_value=0, max_value=n - 1),
                st.floats(min_value=0.0, max_value=800.0, allow_nan=False),
            ),
            max_size=15,
        )
    )
    builds = draw(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=4),  # container (maybe unused)
                st.floats(min_value=0.0, max_value=300.0, allow_nan=False),
                st.floats(min_value=1.0, max_value=90.0, allow_nan=False),
            ),
            max_size=4,
        )
    )
    seed = draw(st.integers(min_value=0, max_value=2**20))
    return n, runtimes, cids, starts, edges, builds, seed


def _build_case(case) -> InterleavedSchedule:
    n, runtimes, cids, starts, edges, builds, _seed = case
    df = Dataflow(name="df")
    names = [f"op{i}" for i in range(n)]
    for name, runtime in zip(names, runtimes):
        df.add_operator(Operator(name=name, runtime=runtime))
    for i, j, mb in edges:
        if i < j:  # DAG on operator index; assignment order stays random
            df.add_edge(names[i], names[j], data_mb=mb)
    assignments = [
        Assignment(name, cid, start, start + runtime)
        for name, cid, start, runtime in zip(names, cids, starts, runtimes)
    ]
    schedule = Schedule(dataflow=df, pricing=PAPER_PRICING, assignments=assignments)
    build_assignments = [
        Assignment(f"build::tbl__col::p{k:05d}", cid, start, start + dur)
        for k, (cid, start, dur) in enumerate(builds)
    ]
    return InterleavedSchedule(schedule=schedule, build_assignments=build_assignments)


@given(case=_cases(), runtime_error=st.sampled_from([0.0, 0.1]))
@settings(max_examples=120, deadline=None, derandomize=True)
def test_both_paths_match_frozen_oracle(case, runtime_error):
    """Both ways into the dataflow phase — the full ``execute`` and its
    ``_dataflow_phase`` seam — equal the frozen naive transcription fed
    the identical noise stream: makespan, money, per-container leases
    and every operator interval."""
    seed = case[-1]
    interleaved = _build_case(case)
    df_sorted = sorted(
        interleaved.schedule.dataflow_assignments(), key=lambda a: (a.start, a.end)
    )
    rng = np.random.default_rng(seed)
    durations = []
    for a in df_sorted:
        noise = 1.0
        if runtime_error > 0.0:
            noise = float(rng.uniform(1.0 - runtime_error, 1.0 + runtime_error))
        durations.append(a.duration * noise)
    starts, ends, makespan, money, leases = oracle_dataflow_phase(
        interleaved.schedule.dataflow, df_sorted, durations, PAPER_PRICING
    )

    def simulator() -> ExecutionSimulator:
        return ExecutionSimulator(
            PAPER_PRICING, runtime_error=runtime_error, rng=np.random.default_rng(seed)
        )

    # Strip the builds: the oracle covers the dataflow phase + leases.
    bare = InterleavedSchedule(schedule=copy.deepcopy(interleaved.schedule))
    result = simulator().execute(bare, 0.0)
    assert result.makespan_seconds == makespan
    assert result.money_quanta == money

    mk, mq, sim_leases, busy = simulator()._dataflow_phase(
        interleaved.schedule.dataflow, df_sorted, _OpFaultTally(), 0, 0.0
    )
    assert mk == makespan
    assert mq == money
    assert sim_leases == leases
    expected: dict[int, list[tuple[float, float]]] = {}
    for a in df_sorted:
        expected.setdefault(a.container_id, []).append(
            (starts[a.op_name], ends[a.op_name])
        )
    assert {
        cid: [(iv.start, iv.end) for iv in intervals] for cid, intervals in busy.items()
    } == expected


def test_empty_schedule_takes_scalar_path():
    df = Dataflow(name="empty")
    schedule = Schedule(dataflow=df, pricing=PAPER_PRICING, assignments=[])
    sim = ExecutionSimulator(PAPER_PRICING)
    result = sim.execute(InterleavedSchedule(schedule=schedule), 0.0)
    assert result.makespan_seconds == 0.0
    assert result.money_quanta == 0

