"""Differential tests: incremental gain sums vs the naive Eq. 4/5 oracle,
and the batched pass vs the frozen per-index evaluator.

The incremental evaluator maintains the faded benefit inflows across
decision points by decay-rescaling (``S(now+δ) = e^(-δ/D)·S(now) - …``),
which is tolerance-equal — not bit-identical — to the oracle's direct
per-sample summation. Hypothesis drives adversarial episodes (appends,
running→finished flips, evictions, out-of-order history, backwards
time) and every checkpoint must agree with the oracle within
a relative 1e-7 — far tighter than any decision threshold in the model
(delete threshold 0.05 quanta) and far looser than the proven drift
bound (one rounding error per advance, exact refresh every 32).

``faded_sums_many`` advances every index of a decision in one pass. It
must match the frozen per-index evaluator bit for bit, with the same
cache counts, because it performs the same float operations in the same
order and only shares work that gives the same bits.
"""

from __future__ import annotations

import math

from hypothesis import example, given, settings, strategies as st

from repro.cloud.pricing import PAPER_PRICING
from repro.core.numeric import eq_tol
from repro.data.index_model import IndexCostModel
from repro.tuning.gain import GainModel, GainParameters
from repro.tuning.history import DataflowHistory, DataflowRecord
from repro.tuning.incremental import REFRESH_EVERY, IncrementalGainEvaluator

from tests.differential.oracle import OracleIncrementalGainEvaluator, oracle_faded_sums

INDEX = "lineitem__l_orderkey"
OTHER = "orders__o_custkey"


def _model(window_quanta: float, fade_quanta: float) -> GainModel:
    params = GainParameters(
        fade_quanta=fade_quanta, window_quanta=window_quanta,
        storage_window_quanta=fade_quanta,
    )
    return GainModel(PAPER_PRICING, IndexCostModel(PAPER_PRICING), params)


def _assert_sums_match(
    model: GainModel,
    history: DataflowHistory,
    evaluator: IncrementalGainEvaluator,
    now: float,
) -> None:
    for name in (INDEX, OTHER):
        naive_t, naive_m, naive_n = oracle_faded_sums(model, history, name, now)
        inc_t, inc_m, inc_n = evaluator.faded_sums(name, now)
        assert inc_n == naive_n, f"{name}: sample count {inc_n} != oracle {naive_n}"
        tol_t = 1e-7 * max(1.0, abs(naive_t))
        tol_m = 1e-7 * max(1.0, abs(naive_m))
        assert eq_tol(inc_t, naive_t, tol_t), (
            f"{name}: time sum {inc_t!r} != oracle {naive_t!r} at now={now}"
        )
        assert eq_tol(inc_m, naive_m, tol_m), (
            f"{name}: money sum {inc_m!r} != oracle {naive_m!r} at now={now}"
        )


# One episode event: (kind, payload) drawn by the strategy below.
_gain_floats = st.floats(min_value=0.0, max_value=100.0, allow_nan=False)
_events = st.lists(
    st.one_of(
        st.tuples(st.just("append"), _gain_floats, _gain_floats,
                  st.floats(min_value=0.0, max_value=400.0),
                  st.booleans()),
        st.tuples(st.just("append_running"), _gain_floats, _gain_floats),
        st.tuples(st.just("finish"), st.floats(min_value=0.0, max_value=300.0)),
        st.tuples(st.just("check"), st.floats(min_value=0.0, max_value=900.0)),
    ),
    min_size=1,
    max_size=40,
)


@given(
    events=_events,
    window_quanta=st.sampled_from([1.0, 5.0, 30.0, 90.0]),
    fade_quanta=st.sampled_from([0.5, 5.0, 50.0]),
    max_records=st.sampled_from([None, 3, 8, 64]),
)
# A flip to finished at 1 s between two appends executed at 0 s: the
# rebuild at 241 s keeps all three in position order, so at 301 s prefix
# expiry stops at the in-window record at 1 s, ahead of an expired one.
@example(
    events=[
        ("append", 1.0, 1.0, 0.0, False),
        ("append_running", 1.0, 1.0),
        ("finish", 1.0),
        ("append", 1.0, 1.0, 0.0, False),
        ("check", 541.0),
        ("check", 360.0),
    ],
    window_quanta=5.0,
    fade_quanta=0.5,
    max_records=None,
)
@settings(max_examples=120, deadline=None, derandomize=True)
def test_incremental_sums_match_oracle_on_random_episodes(
    events, window_quanta, fade_quanta, max_records
):
    """Every checkpoint of a random episode agrees with the naive fold.

    Episodes interleave finished appends (occasionally with out-of-order
    ``executed_at``, which must force a rebuild rather than a wrong
    answer), running appends, running→finished flips (history mutation),
    bounded-history eviction and non-monotone "now" checkpoints.
    """
    model = _model(window_quanta, fade_quanta)
    history = DataflowHistory(PAPER_PRICING, max_records=max_records)
    evaluator = IncrementalGainEvaluator(model, history)
    now = 0.0
    serial = 0
    for event in events:
        kind = event[0]
        if kind == "append":
            _, gtd, gmd, back_s, shared = event
            record = DataflowRecord(
                name=f"df{serial}",
                executed_at=max(0.0, now - back_s),  # back_s > 0: out of order
                time_gains={INDEX: gtd, **({OTHER: gtd * 0.5} if shared else {})},
                money_gains={INDEX: gmd, **({OTHER: gmd * 0.5} if shared else {})},
            )
            history.add(record)
            serial += 1
        elif kind == "append_running":
            _, gtd, gmd = event
            history.add(
                DataflowRecord(
                    name=f"df{serial}", executed_at=now,
                    time_gains={INDEX: gtd}, money_gains={INDEX: gmd},
                    running=True,
                )
            )
            serial += 1
        elif kind == "finish":
            _, delay_s = event
            running = [r for r in history.records if r.running]
            if running:
                history.mark_finished(running[0].name, now + delay_s)
        else:  # check
            _, jump_s = event
            now = max(0.0, now + jump_s - 300.0)  # jumps can go backwards
            _assert_sums_match(model, history, evaluator, now)
    _assert_sums_match(model, history, evaluator, now + 60.0)


def test_empty_history_is_zero():
    model = _model(window_quanta=60.0, fade_quanta=5.0)
    history = DataflowHistory(PAPER_PRICING)
    evaluator = IncrementalGainEvaluator(model, history)
    assert evaluator.faded_sums(INDEX, 0.0) == (0.0, 0.0, 0)
    assert evaluator.faded_sums(INDEX, 1e6) == (0.0, 0.0, 0)


def test_fully_faded_window_drops_every_sample():
    """Samples older than W contribute nothing — and are expired, not
    just masked: the internal window drains as time passes."""
    model = _model(window_quanta=2.0, fade_quanta=5.0)
    history = DataflowHistory(PAPER_PRICING)
    evaluator = IncrementalGainEvaluator(model, history)
    for i in range(5):
        history.add(
            DataflowRecord(
                name=f"df{i}", executed_at=60.0 * i,
                time_gains={INDEX: 10.0}, money_gains={INDEX: 4.0},
            )
        )
    early = evaluator.faded_sums(INDEX, 240.0)
    assert early[2] == 3  # executed at 120/180/240 are within 2 quanta
    late = evaluator.faded_sums(INDEX, 1_000_000.0)
    assert late == (0.0, 0.0, 0)
    assert not evaluator._states[INDEX].window


def test_running_records_contribute_at_full_weight_until_finished():
    model = _model(window_quanta=60.0, fade_quanta=5.0)
    history = DataflowHistory(PAPER_PRICING)
    evaluator = IncrementalGainEvaluator(model, history)
    history.add(
        DataflowRecord(
            name="df0", executed_at=0.0,
            time_gains={INDEX: 10.0}, money_gains={INDEX: 4.0}, running=True,
        )
    )
    mc = PAPER_PRICING.quantum_price
    for now in (0.0, 600.0, 3600.0):  # running gain never fades
        assert evaluator.faded_sums(INDEX, now) == (10.0, mc * 4.0, 1)
    history.mark_finished("df0", 3600.0)
    sum_t, sum_m, count = evaluator.faded_sums(INDEX, 3600.0 + 300.0)
    dc = math.exp(-5.0 / 5.0)  # five quanta old, D = 5
    assert count == 1
    assert eq_tol(sum_t, dc * 10.0, 1e-12)
    assert eq_tol(sum_m, dc * mc * 4.0, 1e-12)


def test_drift_stays_bounded_across_many_advances():
    """Thousands of decay-rescales stay within the oracle tolerance
    thanks to the periodic exact refresh."""
    model = _model(window_quanta=1000.0, fade_quanta=50.0)
    history = DataflowHistory(PAPER_PRICING)
    evaluator = IncrementalGainEvaluator(model, history)
    now = 0.0
    for i in range(10 * REFRESH_EVERY):
        if i % 3 == 0:
            history.add(
                DataflowRecord(
                    name=f"df{i}", executed_at=now,
                    time_gains={INDEX: 7.5}, money_gains={INDEX: 2.5},
                )
            )
        now += 37.0
        evaluator.faded_sums(INDEX, now)
    _assert_sums_match(model, history, evaluator, now)
    stats = evaluator.stats
    assert stats.hits > stats.misses + stats.invalidations, (
        "monotone episode should advance incrementally, not rebuild"
    )


def test_cache_stats_classify_rebuild_causes():
    model = _model(window_quanta=60.0, fade_quanta=5.0)
    history = DataflowHistory(PAPER_PRICING)
    evaluator = IncrementalGainEvaluator(model, history)
    history.add(DataflowRecord("df0", 0.0, {INDEX: 1.0}, {INDEX: 1.0}))
    evaluator.faded_sums(INDEX, 60.0)
    assert evaluator.stats.misses == 1  # first sight: cold rebuild
    evaluator.faded_sums(INDEX, 120.0)
    assert evaluator.stats.hits == 1  # monotone advance
    evaluator.faded_sums(INDEX, 60.0)  # time moved backwards
    assert evaluator.stats.invalidations == 1
    history.add(DataflowRecord("df1", 0.0, {INDEX: 1.0}, {INDEX: 1.0}, running=True))
    history.mark_finished("df1", 90.0)  # in-place mutation
    evaluator.faded_sums(INDEX, 120.0)
    assert evaluator.stats.invalidations == 2


#: Indexes of the batched episodes; records mention overlapping subsets.
NAMES = (INDEX, OTHER, "orders__o_orderdate", "part__p_type", "lineitem__l_shipdate")
_masks = st.integers(min_value=0, max_value=2 ** len(NAMES) - 1)
_batched_events = st.lists(
    st.one_of(
        # (mask, gtd, gmd, offset_s, running): offsets below zero append
        # out of order, above zero future-dated.
        st.tuples(st.just("append"), _masks, _gain_floats, _gain_floats,
                  st.floats(min_value=-400.0, max_value=200.0), st.booleans()),
        st.tuples(st.just("finish"), st.floats(min_value=0.0, max_value=300.0)),
        # (jump_s, mask): jumps below 300 s move "now" backwards; most
        # decisions ask for every index.
        st.tuples(st.just("decide"), st.floats(min_value=0.0, max_value=900.0),
                  st.one_of(st.just(2 ** len(NAMES) - 1), _masks)),
    ),
    min_size=1,
    max_size=50,
)


def _stats(evaluator) -> tuple[int, int, int]:
    stats = evaluator.stats
    return stats.hits, stats.misses, stats.invalidations


@given(
    events=_batched_events,
    window_quanta=st.sampled_from([1.0, 5.0, 30.0]),
    fade_quanta=st.sampled_from([0.5, 5.0, 50.0]),
    max_records=st.sampled_from([None, 3, 8]),
)
@settings(max_examples=150, deadline=None, derandomize=True)
def test_batched_sums_are_bit_identical_to_per_index_advances(
    events, window_quanta, fade_quanta, max_records
):
    """At every decision, one ``faded_sums_many`` pass returns exactly
    the floats and counts of the frozen per-index loop, and moves the
    hit, miss and invalidation counters by exactly as much.

    Episodes mix overlapping index sets, bounded-history eviction,
    running-to-finished flips, future-dated and out-of-order appends,
    and "now" moving backwards.
    """
    model = _model(window_quanta, fade_quanta)
    history = DataflowHistory(PAPER_PRICING, max_records=max_records)
    batched = IncrementalGainEvaluator(model, history)
    frozen = OracleIncrementalGainEvaluator(model, history)
    now = 0.0
    serial = 0
    for event in events:
        kind = event[0]
        if kind == "append":
            _, mask, gtd, gmd, offset_s, running = event
            used = [name for bit, name in enumerate(NAMES) if mask >> bit & 1]
            history.add(
                DataflowRecord(
                    name=f"df{serial}",
                    executed_at=max(0.0, now + offset_s),
                    time_gains={name: gtd + k for k, name in enumerate(used)},
                    money_gains={name: gmd * 0.5 + k for k, name in enumerate(used)},
                    running=running,
                )
            )
            serial += 1
        elif kind == "finish":
            _, delay_s = event
            running = [r for r in history.records if r.running]
            if running:
                history.mark_finished(running[-1].name, now + delay_s)
        else:
            _, jump_s, mask = event
            now = max(0.0, now + jump_s - 300.0)
            names = [name for bit, name in enumerate(NAMES) if mask >> bit & 1]
            expected = [frozen.faded_sums(name, now) for name in names]
            actual = batched.faded_sums_many(names, now)
            assert actual == expected
            assert repr(actual) == repr(expected)  # signed zeros too
            assert _stats(batched) == _stats(frozen)

