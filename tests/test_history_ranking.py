"""Tests for the dataflow history store and the 2D index ranking."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.cloud.pricing import PAPER_PRICING
from repro.core.numeric import gt_tol, le_tol
from repro.tuning.gain import IndexGain
from repro.tuning.history import DataflowHistory, DataflowRecord
from repro.tuning.ranking import classify, deletable_indexes, rank_indexes


def record(name, at, gains=None, running=False):
    gains = gains or {"t__x": 1.0}
    return DataflowRecord(
        name=name, executed_at=at,
        time_gains=dict(gains), money_gains=dict(gains), running=running,
    )


class TestHistory:
    def test_add_and_query(self):
        h = DataflowHistory(PAPER_PRICING)
        h.add(record("d1", at=0.0))
        h.add(record("d2", at=60.0))
        samples = h.samples_for("t__x", now=120.0)
        assert len(samples) == 2
        assert samples[0].age_quanta == pytest.approx(2.0)
        assert samples[1].age_quanta == pytest.approx(1.0)

    def test_unknown_index_no_samples(self):
        h = DataflowHistory(PAPER_PRICING)
        h.add(record("d1", at=0.0))
        assert h.samples_for("nope", now=10.0) == []

    def test_running_dataflow_has_age_zero(self):
        h = DataflowHistory(PAPER_PRICING)
        h.add(record("d1", at=0.0, running=True))
        samples = h.samples_for("t__x", now=6000.0)
        assert samples[0].age_quanta == 0.0

    def test_mark_finished(self):
        h = DataflowHistory(PAPER_PRICING)
        h.add(record("d1", at=0.0, running=True))
        h.mark_finished("d1", finished_at=120.0)
        samples = h.samples_for("t__x", now=180.0)
        assert samples[0].age_quanta == pytest.approx(1.0)
        with pytest.raises(KeyError):
            h.mark_finished("d1", finished_at=180.0)

    def test_eviction_respects_cap(self):
        h = DataflowHistory(PAPER_PRICING, max_records=3)
        for i in range(6):
            h.add(record(f"d{i}", at=float(i)))
        assert len(h) == 3
        assert [r.name for r in h.records] == ["d3", "d4", "d5"]
        assert len(h.samples_for("t__x", now=100.0)) == 3

    def test_index_names_sorted(self):
        h = DataflowHistory(PAPER_PRICING)
        h.add(record("d1", at=0.0, gains={"b__y": 1.0, "a__x": 1.0}))
        assert h.index_names() == ["a__x", "b__y"]


def gain(name, gt, gm, combined=None):
    return IndexGain(
        index_name=name,
        time_gain_quanta=gt,
        money_gain_dollars=gm,
        combined_dollars=combined if combined is not None else gt + gm,
    )


class TestRanking:
    def test_only_doubly_positive_are_beneficial(self):
        gains = [
            gain("both", 1.0, 1.0),
            gain("time_only", 1.0, -0.1),
            gain("money_only", -0.1, 1.0),
            gain("neither", -1.0, -1.0),
        ]
        ranked = rank_indexes(gains)
        assert [g.index_name for g in ranked] == ["both"]

    def test_sorted_by_combined_descending(self):
        gains = [
            gain("small", 0.1, 0.1, combined=0.2),
            gain("big", 5.0, 5.0, combined=10.0),
            gain("mid", 1.0, 1.0, combined=2.0),
        ]
        assert [g.index_name for g in rank_indexes(gains)] == ["big", "mid", "small"]

    def test_ties_broken_deterministically(self):
        gains = [gain("b", 1.0, 1.0, 2.0), gain("a", 1.0, 1.0, 2.0)]
        assert [g.index_name for g in rank_indexes(gains)] == ["a", "b"]

    def test_deletable_requires_both_nonpositive(self):
        gains = [
            gain("drop", -1.0, -1.0),
            gain("keep_t", 1.0, -1.0),
            gain("keep_m", -1.0, 1.0),
            gain("zero", 0.0, 0.0),  # boundary: <= 0 deletes
        ]
        assert {g.index_name for g in deletable_indexes(gains)} == {"drop", "zero"}


# ----------------------------------------------------------------------
# Algorithm 1's flags, evaluated once per gain per decision
# ----------------------------------------------------------------------
def frozen_beneficial(g):
    """The build flag as each decision evaluated it per call before."""
    return gt_tol(g.time_gain_quanta, 0.0, tol=0.0) and gt_tol(
        g.money_gain_dollars, 0.0, tol=0.0
    )


def frozen_deletable(g):
    """The delete flag as each decision evaluated it per call before."""
    eps_t = g.delete_threshold_quanta
    eps_m = g.delete_threshold_quanta * 0.1
    return le_tol(g.time_gain_quanta, 0.0, tol=eps_t) and le_tol(
        g.money_gain_dollars, 0.0, tol=eps_m
    )


def _boundary_values(threshold):
    return st.sampled_from([
        0.0, -0.0, threshold, -threshold, 0.1 * threshold, -0.1 * threshold,
        threshold * 0.1, math.nextafter(threshold, math.inf),
        math.nextafter(threshold * 0.1, -math.inf), 5e-324, -5e-324,
    ])


@st.composite
def decision_gains(draw):
    """A decision's worth of gains: random and boundary components."""
    threshold = draw(st.sampled_from([0.05, 0.0, 1e-3, 0.3]))
    value = st.one_of(
        _boundary_values(threshold),
        st.floats(-2.0, 2.0, allow_nan=False, allow_infinity=False),
    )
    count = draw(st.integers(0, 12))
    return [
        IndexGain(
            index_name=f"t__i{k}",
            time_gain_quanta=draw(value),
            money_gain_dollars=draw(value),
            combined_dollars=draw(st.floats(-2.0, 2.0, allow_nan=False)),
            delete_threshold_quanta=threshold,
        )
        for k in range(count)
    ]


@given(decision_gains())
@settings(max_examples=300, deadline=None, derandomize=True)
def test_flags_match_the_per_call_formulas(gains):
    classified = classify(gains)
    for g in gains:
        expected = (frozen_beneficial(g), frozen_deletable(g))
        assert g.flags() == expected
        assert (g.beneficial, g.deletable) == expected
        assert classified.flags[g.index_name] == expected
        row = g.breakdown(classified.flags[g.index_name])
        assert row == g.breakdown()
        assert (row["beneficial"], row["deletable"]) == expected
    assert classified.ranked == sorted(
        (g for g in gains if frozen_beneficial(g)),
        key=lambda g: (-g.combined_dollars, -g.time_gain_quanta,
                       -g.money_gain_dollars, g.index_name),
    )
    assert classified.deletable == sorted(
        (g for g in gains if frozen_deletable(g)),
        key=lambda g: (g.combined_dollars, g.index_name),
    )
    assert rank_indexes(gains) == classified.ranked
    assert deletable_indexes(gains) == classified.deletable


def test_flags_at_the_thresholds():
    eps = 0.05
    at = gain("at", eps, eps * 0.1)
    assert at.flags() == (True, True)  # pays for itself, yet below the threshold
    assert gain("above", math.nextafter(eps, 1.0), 0.0).flags() == (False, False)
    assert gain("signed_zero", -0.0, -0.0).flags() == (False, True)
