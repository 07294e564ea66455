"""Differential tests: optimised skyline scheduler vs the frozen oracle.

Selecting each step's skyline before materialising it, settling each
optional operator per parent in one pass, incremental money/idle
objectives and cached topological orders are all *exact* optimisations —
the optimised scheduler must produce assignment-identical schedules to
the pre-optimisation oracle on every input, not merely an equivalent
Pareto front. Random layered DAGs (with optional index-build operators,
the online-interleaving case) exercise branching, tie-breaking and the
skyline cap; app dataflows carrying many builds exercise the large
all-tie groups online interleaving produces. Runtimes on a 5 s grid
and an hour-long quantum exercise the lease-slack index that settles
optional builds: builds that fill a lease exactly, and a fit tolerance
(1e-9 of a quantum) far above a microsecond. A lease that runs past its
container's stored tail (a zero-runtime operator alone on a container
at a quantum boundary) never survives in a whole schedule beside another
container, so hand-built partials test the settle there.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cloud.pricing import PAPER_PRICING, PricingModel
from repro.dataflow.client import build_workload
from repro.dataflow.graph import Dataflow, Edge
from repro.dataflow.operator import Operator
from repro.scheduling import skyline
from repro.scheduling.skyline import SkylineScheduler

from tests.differential.oracle import OracleSkylineScheduler


#: An hour-long quantum: the fit test tolerates 3.6 µs of overrun.
LONG_QUANTUM = PricingModel(quantum_seconds=3600.0)


@st.composite
def random_dags(draw, max_optional=3, optional_in_edges=False, grid=False):
    """Random layered DAGs, some operators optional (index builds).

    Builds have no edges unless ``optional_in_edges``: then each may read
    from any earlier operator, dataflow or build, which the public API
    accepts though online interleaving never produces it.

    With ``grid``, every runtime is a multiple of 5 s, zero included, and
    edges carry no data: builds then fill lease slack exactly, and
    zero-runtime operators land on quantum boundaries."""
    num_ops = draw(st.integers(min_value=2, max_value=14))
    if grid:
        runtime = st.integers(min_value=0, max_value=80).map(lambda k: 5.0 * k)
    else:
        runtime = st.floats(min_value=1.0, max_value=400.0)
    runtimes = draw(st.lists(runtime, min_size=num_ops, max_size=num_ops))
    num_optional = draw(st.integers(min_value=0, max_value=max_optional))
    edge_seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    edge_prob = draw(st.sampled_from([0.0, 0.2, 0.45]))
    flow = Dataflow(name="diff")
    for i, runtime in enumerate(runtimes):
        flow.add_operator(Operator(name=f"op{i}", runtime=runtime))
    rng = np.random.default_rng(edge_seed)
    # Edges only from lower to higher indices: acyclic by construction.
    for j in range(1, num_ops):
        for i in range(j):
            if rng.random() < edge_prob:
                flow.add_edge(f"op{i}", f"op{j}", data_mb=_data_mb(rng, grid))
    # Optional operators model index builds: skippable.
    for k in range(num_optional):
        if grid:
            build_runtime = 5.0 * float(rng.integers(1, 41))
        else:
            build_runtime = float(rng.uniform(10, 200))
        flow.add_operator(Operator(name=f"build{k}", runtime=build_runtime, optional=True))
        if optional_in_edges:
            for src in [f"op{i}" for i in range(num_ops)] + [f"build{j}" for j in range(k)]:
                if rng.random() < edge_prob:
                    flow.add_edge(src, f"build{k}", data_mb=_data_mb(rng, grid))
    return flow


def _data_mb(rng: np.random.Generator, grid: bool) -> float:
    return 0.0 if grid else float(rng.uniform(0, 80))


def _fingerprint(schedules) -> list[tuple]:
    """Assignment-level identity: (op, container, start, end) per schedule."""
    return [
        tuple((a.op_name, a.container_id, a.start, a.end) for a in s.assignments)
        for s in schedules
    ]


@given(
    flow=st.one_of(
        random_dags(),
        random_dags(optional_in_edges=True),
        random_dags(max_optional=12, grid=True),
        random_dags(max_optional=6, optional_in_edges=True, grid=True),
    ),
    pricing=st.sampled_from([PAPER_PRICING, LONG_QUANTUM]),
    max_skyline=st.sampled_from([1, 2, 4, 8]),
    max_containers=st.sampled_from([2, 3, 8, 100]),
)
@settings(max_examples=240, deadline=None, derandomize=True)
def test_optimised_scheduler_is_assignment_identical_to_oracle(
    flow, pricing, max_skyline, max_containers
):
    oracle = OracleSkylineScheduler(
        pricing, max_skyline=max_skyline, max_containers=max_containers
    )
    optimised = SkylineScheduler(
        pricing, max_skyline=max_skyline, max_containers=max_containers
    )
    expected = oracle.schedule(flow)
    actual = optimised.schedule(flow)
    assert _fingerprint(actual) == _fingerprint(expected)


@given(flow=random_dags(), max_skyline=st.sampled_from([2, 6]))
@settings(max_examples=30, deadline=None, derandomize=True)
def test_pareto_front_objectives_match_oracle(flow, max_skyline):
    """Beyond identical assignments: the (time, money) points and the
    idle-slot tie-break objective agree schedule by schedule."""
    oracle = OracleSkylineScheduler(PAPER_PRICING, max_skyline=max_skyline, max_containers=6)
    optimised = SkylineScheduler(PAPER_PRICING, max_skyline=max_skyline, max_containers=6)
    expected = oracle.schedule(flow)
    actual = optimised.schedule(flow)
    assert len(actual) == len(expected)
    for got, want in zip(actual, expected):
        assert got.makespan_quanta() == want.makespan_quanta()
        assert got.money_quanta() == want.money_quanta()
        assert got.fragmentation_quanta() == want.fragmentation_quanta()


@given(
    flow=random_dags(max_optional=12),
    max_skyline=st.sampled_from([1, 2, 4, 8]),
    max_containers=st.sampled_from([2, 3]),
)
@settings(max_examples=60, deadline=None, derandomize=True)
def test_many_builds_on_few_containers_match_oracle(flow, max_skyline, max_containers):
    """Many optional builds on two or three containers: equal lease
    tails are common, so the idle tie-break often scores a move on the
    container with the largest tail against an equal runner-up."""
    oracle = OracleSkylineScheduler(
        PAPER_PRICING, max_skyline=max_skyline, max_containers=max_containers
    )
    optimised = SkylineScheduler(
        PAPER_PRICING, max_skyline=max_skyline, max_containers=max_containers
    )
    assert _fingerprint(optimised.schedule(flow)) == _fingerprint(oracle.schedule(flow))


def test_build_within_the_fit_tolerance_of_a_long_quantum_is_placed():
    """A build that overruns its container's lease slack by 2 µs still
    fits, because the fit test tolerates 1e-9 of a quantum (3.6 µs of an
    hour). A slack filter with a fixed 1 µs margin drops it."""
    flow = Dataflow(name="tolerance")
    flow.add_operator(Operator(name="op0", runtime=100.0))
    flow.add_operator(Operator(name="build0", runtime=3500.0 + 2e-6, optional=True))
    oracle = OracleSkylineScheduler(LONG_QUANTUM, max_containers=2)
    optimised = SkylineScheduler(LONG_QUANTUM, max_containers=2)
    expected = oracle.schedule(flow)
    assert [a.op_name for a in expected[0].assignments] == ["op0", "build0"]
    assert _fingerprint(optimised.schedule(flow)) == _fingerprint(expected)


def _app_flow_with_builds(app: str, num_ops: int = 40, num_builds: int = 24) -> Dataflow:
    """An app dataflow carrying optional builds: the shape online
    interleaving hands the scheduler, at a size where all-tie groups
    (equal time, money and #ops) grow large."""
    flow = build_workload(PAPER_PRICING, seed=42, num_ops=num_ops).next_dataflow(app, 0.0)
    rng = np.random.default_rng(2020)
    for k, runtime in enumerate(rng.uniform(5.0, 90.0, size=num_builds)):
        flow.add_operator(Operator(name=f"build{k}", runtime=float(runtime), optional=True))
    return flow


APPS = ["montage", "ligo", "cybershake"]

#: (operators, builds, max_containers, max_skyline): the paper's caps on a
#: 40-operator flow, and the service's caps (``scheduler_containers``,
#: ``max_skyline``) on the 100-operator flows the benchmark runs.
PAPER_CASE = (40, 24, 100, 8)
SERVICE_CASE = (100, 100, 20, 4)


@pytest.mark.parametrize(
    ("app", "case"),
    [pytest.param(app, PAPER_CASE, id=app) for app in APPS]
    + [pytest.param(app, SERVICE_CASE, id=f"{app}-service") for app in APPS],
)
def test_app_flow_with_many_builds_matches_oracle(app, case):
    num_ops, num_builds, max_containers, max_skyline = case
    flow = _app_flow_with_builds(app, num_ops, num_builds)
    oracle = OracleSkylineScheduler(
        PAPER_PRICING, max_containers=max_containers, max_skyline=max_skyline
    )
    optimised = SkylineScheduler(
        PAPER_PRICING, max_containers=max_containers, max_skyline=max_skyline
    )
    assert _fingerprint(optimised.schedule(flow)) == _fingerprint(oracle.schedule(flow))


@pytest.mark.parametrize("app", APPS)
def test_materialises_at_most_max_skyline_partials_per_operator(app, monkeypatch):
    """Each step copies only the partials it keeps: at most
    ``max_skyline`` per operator scheduled, whatever the branching."""
    flow = _app_flow_with_builds(app)
    copies = 0
    branch = skyline._Partial.branch

    def counting_branch(partial):
        nonlocal copies
        copies += 1
        return branch(partial)

    monkeypatch.setattr(skyline._Partial, "branch", counting_branch)
    SkylineScheduler(PAPER_PRICING, max_containers=100, max_skyline=8).schedule(flow)
    assert 0 < copies <= 8 * len(flow.operators)


@given(
    moves=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=4),
            st.sampled_from([20.0, 30.0, 45.0, 60.0, 90.0]),
        ),
        min_size=1,
        max_size=14,
    )
)
@settings(max_examples=100, deadline=None, derandomize=True)
def test_idle_score_matches_oracle_walk(moves):
    """The O(1) idle score of every scored move equals the oracle's walk
    over the materialised assignments, not only where it decides a tie.
    Runtimes on a 5 s grid make lease tails tie, and the random
    placements move the container with the largest tail as often as any
    other."""
    scheduler = SkylineScheduler(PAPER_PRICING, max_containers=4)
    oracle = OracleSkylineScheduler(PAPER_PRICING, max_containers=4)
    partial = skyline._Partial()
    for k, (pick, runtime) in enumerate(moves):
        op = Operator(name=f"op{k}", runtime=runtime)
        rows = []
        scheduler._branch(partial, [], runtime, rows)
        tops = scheduler._top_tails(partial)
        moved = []
        for _, money, _, parent, cid, start, end, closed_gap in rows:
            materialised = scheduler._apply(
                parent.branch(), op, cid, start, end, money, closed_gap
            )
            idle = scheduler._idle(tops, cid, end, closed_gap)
            assert idle == oracle._max_sequential_idle(materialised)
            moved.append(materialised)
        partial = moved[pick % len(moved)]


def _scan_settle(scheduler, partial, steps) -> None:
    """The settle without the slack index: every container of every
    step gets the exact fit test and, when it fits, the idle score."""
    tq = scheduler.pricing.quantum_seconds
    for op, edges, duration in steps:
        remote, held = scheduler._ready_times(partial, edges)
        tops = scheduler._top_tails(partial)
        best, best_idle = None, -math.inf
        for cid, (avail, start_q, old_q, _) in enumerate(partial.containers):
            start = max(held.get(cid, remote), avail)
            end = start + duration
            if max(start_q + 1, math.ceil(end / tq - 1e-9)) != old_q:
                continue
            closed_gap = max(partial.max_closed_gap, start - avail)
            idle = scheduler._idle(tops, cid, end, closed_gap)
            if idle > best_idle:
                best, best_idle = (cid, start, end, closed_gap), idle
        if best is not None:
            cid, start, end, closed_gap = best
            scheduler._apply(partial, op, cid, start, end, partial.money_quanta, closed_gap)


@given(
    moves=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=4),
            st.sampled_from([0.0, 5.0, 30.0, 50.0, 60.0, 120.0]),
            st.booleans(),
        ),
        min_size=1,
        max_size=8,
    ),
    builds=st.lists(
        st.tuples(st.integers(min_value=1, max_value=24).map(lambda k: 5.0 * k), st.booleans()),
        min_size=1,
        max_size=10,
    ),
    pricing=st.sampled_from([PAPER_PRICING, LONG_QUANTUM]),
)
@settings(max_examples=300, deadline=None, derandomize=True)
def test_settle_matches_a_scan_of_every_container(moves, builds, pricing):
    """The indexed settle against a scan of every container, on partials
    no whole schedule keeps: a zero-runtime operator alone on a fresh
    container at a quantum boundary leases the next quantum while its
    stored tail is zero, so a build there can score above the parent's
    largest tail, and the early exit must bound it by slack, not tail.

    Each required move reads the previous operator's output when its flag
    is set (no data, so it starts on the grid), then takes one of the
    scored moves, fresh container included; builds read it likewise."""
    scheduler = SkylineScheduler(pricing, max_containers=5)
    partial = skyline._Partial()
    for k, (pick, runtime, after) in enumerate(moves):
        edges = [Edge(f"op{k - 1}", f"op{k}")] if after and k else []
        rows = []
        scheduler._branch(partial, edges, runtime, rows)
        _, money, _, parent, cid, start, end, closed_gap = rows[pick % len(rows)]
        op = Operator(name=f"op{k}", runtime=runtime)
        partial = scheduler._apply(parent.branch(), op, cid, start, end, money, closed_gap)
    last = f"op{len(moves) - 1}"
    steps = [
        (
            Operator(name=f"build{j}", runtime=runtime, optional=True),
            [Edge(last, f"build{j}")] if after else [],
            runtime,
        )
        for j, (runtime, after) in enumerate(builds)
    ]
    indexed = partial.branch()
    scheduler._settle(indexed, steps)
    scanned = partial.branch()
    _scan_settle(scheduler, scanned, steps)
    assert indexed.assignments == scanned.assignments
    assert indexed.containers == scanned.containers
    assert indexed.max_closed_gap == scanned.max_closed_gap


@given(
    tails=st.lists(st.sampled_from([0.0, 5.0, 30.0, 40.0]), min_size=1, max_size=6),
    moves=st.lists(
        st.tuples(st.integers(min_value=0, max_value=5), st.sampled_from([0.0, 5.0, 30.0, 40.0, 55.0])),
        max_size=12,
    ),
)
@settings(max_examples=200, deadline=None, derandomize=True)
def test_updated_top_tails_score_like_a_rescan(tails, moves):
    """After each move, the updated two largest tails give every
    container the same largest other tail as a rescan, and the same
    largest tail: all the idle score and the early exit read."""
    scheduler = SkylineScheduler(PAPER_PRICING)
    partial = skyline._Partial(containers=[(0.0, 0, 1, tail) for tail in tails])
    tops = scheduler._top_tails(partial)
    for pick, tail in moves:
        cid = pick % len(tails)
        old_tail = partial.containers[cid][3]
        partial.containers[cid] = (0.0, 0, 1, tail)
        tops = scheduler._retop(partial, tops, cid, old_tail)
        rescan = scheduler._top_tails(partial)
        assert tops[0] == rescan[0]
        for c in range(len(tails)):
            others = tops[2] if c == tops[1] else tops[0]
            assert others == (rescan[2] if c == rescan[1] else rescan[0])


def test_topo_cache_reuse_does_not_change_schedules():
    """Scheduling the same structure repeatedly (the service's steady
    state, where the topo cache hits) returns identical schedules."""
    rng = np.random.default_rng(7)
    flow = Dataflow(name="steady")
    for i in range(8):
        flow.add_operator(Operator(name=f"op{i}", runtime=float(rng.uniform(5, 300))))
    for j in range(1, 8):
        for i in range(j):
            if rng.random() < 0.3:
                flow.add_edge(f"op{i}", f"op{j}", data_mb=float(rng.uniform(0, 40)))
    scheduler = SkylineScheduler(PAPER_PRICING, max_skyline=4, max_containers=8)
    first = _fingerprint(scheduler.schedule(flow))
    for _ in range(3):
        assert _fingerprint(scheduler.schedule(flow)) == first
    assert scheduler.topo_stats.hits >= 3
