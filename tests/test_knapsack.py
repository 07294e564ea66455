"""Tests for the knapsack solver and the packing heuristics (Alg. 3, Fig. 11)."""

import itertools
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.config import ExperimentConfig
from repro.core.service import QaaSService, Strategy
from repro.dataflow.client import ArrivalEvent, build_workload
from repro.interleave.greedy import graham_pack, lp_pack, merged_upper_bound
from repro.interleave.knapsack import (
    KnapsackItem,
    fractional_bound,
    solve_knapsack,
    solve_knapsack_greedy,
)
from repro.interleave.lp import GAP_BUCKETS
from repro.obs import Observation


def brute_force(items, capacity):
    best = 0.0
    for r in range(len(items) + 1):
        for combo in itertools.combinations(items, r):
            size = sum(i.size for i in combo)
            if size <= capacity + 1e-12:
                best = max(best, sum(i.gain for i in combo))
    return best


class TestKnapsack:
    def test_empty(self):
        sol = solve_knapsack([], 10.0)
        assert sol.selected == () and sol.total_gain == 0.0

    def test_single_item_fits(self):
        sol = solve_knapsack([KnapsackItem(0, 5.0, 3.0)], 10.0)
        assert sol.selected == (0,)
        assert sol.total_gain == 3.0

    def test_single_item_too_big(self):
        sol = solve_knapsack([KnapsackItem(0, 15.0, 3.0)], 10.0)
        assert sol.selected == ()

    def test_classic_counterexample_to_greedy(self):
        # Greedy by density takes item 0 (density 3) and misses the pair.
        items = [
            KnapsackItem(0, 1.0, 3.0),
            KnapsackItem(1, 5.0, 7.0),
            KnapsackItem(2, 5.0, 7.0),
        ]
        greedy = solve_knapsack_greedy(items, 10.0)
        exact = solve_knapsack(items, 10.0)
        assert exact.total_gain == 14.0
        assert exact.total_gain >= greedy.total_gain

    def test_capacity_zero(self):
        sol = solve_knapsack([KnapsackItem(0, 1.0, 1.0)], 0.0)
        assert sol.selected == ()

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError):
            solve_knapsack([], -1.0)

    def test_lp_bound_at_least_integer_optimum(self):
        items = [KnapsackItem(i, s, g) for i, (s, g) in enumerate([(3, 4), (4, 5), (2, 3)])]
        sol = solve_knapsack(items, 6.0)
        assert sol.lp_bound >= sol.total_gain - 1e-9

    def test_fractional_bound_exact_when_all_fit(self):
        items = [KnapsackItem(0, 1.0, 1.0), KnapsackItem(1, 2.0, 2.0)]
        assert fractional_bound(items, 10.0) == pytest.approx(3.0)


class TestCapReport:
    """``capped`` says whether the search used up ``max_nodes``."""

    def test_identical_items_stop_on_the_proof_before_the_cap(self):
        # One class: the first take-first dive is optimal, and no
        # amount of search could improve it.
        items = [KnapsackItem(i, 3.437, 0.091431) for i in range(120)]
        sol = solve_knapsack(items, 51.878, max_nodes=50)
        assert sol.selected == tuple(range(15))
        assert not sol.capped

    def test_capped_search_reports_it(self):
        # Taking the dense small item first leads the search into a
        # subtree it cannot leave within the cap; 15 items of the
        # second class (1.3715) would beat the answer it returns.
        items = [KnapsackItem(0, 0.572, 0.016571)]
        items += [KnapsackItem(i, 3.437, 0.091431) for i in range(1, 46)]
        items += [KnapsackItem(i, 3.437, 0.084397) for i in range(46, 120)]
        sol = solve_knapsack(items, 51.878, max_nodes=50_000)
        assert sol.capped
        assert sol.total_gain == pytest.approx(0.016571 + 14 * 0.091431)

    def test_cap_report_takes_no_part_in_equality(self):
        items = [KnapsackItem(0, 1.0, 1.0), KnapsackItem(1, 1.0, 2.0)]
        sol = solve_knapsack(items, 1.0)
        assert not sol.capped
        assert sol == replace(sol, capped=True)


def test_seeded_lp_run_publishes_cap_hits_and_gap(monkeypatch):
    """Every LP solve lands in ``interleave/lp/knapsack_capped`` and the
    ``interleave/lp/knapsack_gap`` histogram (total_gain / lp_bound)."""
    solves = []

    def small_cap(items, capacity, max_nodes=200_000):
        # A 50-node cap makes some of this run's solves stop at it.
        solution = solve_knapsack(items, capacity, max_nodes=50)
        solves.append(solution)
        return solution

    monkeypatch.setattr("repro.interleave.lp.solve_knapsack", small_cap)
    cfg = ExperimentConfig(
        total_time_s=20 * 60.0,
        max_skyline=2,
        scheduler_containers=10,
        max_candidates=40,
        max_queued_gain=10,
        seed=5,
    )
    obs = Observation.recording()
    service = QaaSService(build_workload(cfg.pricing, seed=cfg.seed), cfg, Strategy.GAIN, obs=obs)
    service.run([ArrivalEvent(time=(i + 1) * 120.0, app="montage") for i in range(4)])

    capped = sum(s.capped for s in solves)
    assert 0 < capped < len(solves)
    assert obs.metrics.counter("interleave/lp/knapsack_capped").value == capped
    ratios = [s.total_gain / s.lp_bound for s in solves if s.lp_bound > 0]
    gap = obs.metrics.histogram("interleave/lp/knapsack_gap")
    assert gap.bounds == GAP_BUCKETS
    assert gap.count == len(ratios) > 0
    assert gap.sum == pytest.approx(sum(ratios))


@given(
    data=st.lists(
        st.tuples(
            st.floats(min_value=0.1, max_value=10.0),
            st.floats(min_value=0.0, max_value=10.0),
        ),
        max_size=10,
    ),
    capacity=st.floats(min_value=0.0, max_value=30.0),
)
@settings(max_examples=60, deadline=None)
def test_property_branch_and_bound_is_optimal(data, capacity):
    items = [KnapsackItem(i, s, g) for i, (s, g) in enumerate(data)]
    sol = solve_knapsack(items, capacity)
    assert sol.total_gain == pytest.approx(brute_force(items, capacity))
    assert sol.total_size <= capacity + 1e-9
    assert sol.total_gain >= solve_knapsack_greedy(items, capacity).total_gain - 1e-9
    assert sol.lp_bound >= sol.total_gain - 1e-9


class TestPackingHeuristics:
    def _items(self):
        sizes = [0.15, 0.12, 0.1, 0.1, 0.08, 0.08, 0.07, 0.06, 0.05, 0.05]
        return [KnapsackItem(i, s, s) for i, s in enumerate(sizes)]

    def _segments(self):
        return [0.5, 0.35, 0.3, 0.2, 0.15, 0.1, 0.08, 0.05]

    def test_hierarchy_graham_lp_upper_bound(self):
        """Figure 11's ordering: Graham <= LP <= merged upper bound."""
        items, segments = self._items(), self._segments()
        g = graham_pack(items, segments)
        lp = lp_pack(items, segments)
        ub = merged_upper_bound(items, segments)
        assert g.total_gain <= lp.total_gain + 1e-9
        assert lp.total_gain <= ub + 1e-9

    def test_lp_close_to_upper_bound(self):
        """The paper reports LP within ~5% of the theoretical bound."""
        items, segments = self._items(), self._segments()
        lp = lp_pack(items, segments)
        ub = merged_upper_bound(items, segments)
        assert lp.total_gain >= 0.85 * ub

    def test_graham_respects_segment_capacity(self):
        items, segments = self._items(), self._segments()
        result = graham_pack(items, segments)
        by_id = {i.item_id: i for i in items}
        for seg, ids in result.placements.items():
            assert sum(by_id[i].size for i in ids) <= segments[seg] + 1e-9

    def test_lp_respects_segment_capacity(self):
        items, segments = self._items(), self._segments()
        result = lp_pack(items, segments)
        by_id = {i.item_id: i for i in items}
        for seg, ids in result.placements.items():
            assert sum(by_id[i].size for i in ids) <= segments[seg] + 1e-9

    def test_no_item_placed_twice(self):
        items, segments = self._items(), self._segments()
        for result in (graham_pack(items, segments), lp_pack(items, segments)):
            placed = [i for ids in result.placements.values() for i in ids]
            assert len(placed) == len(set(placed))

    def test_oversized_item_dropped(self):
        items = [KnapsackItem(0, 100.0, 100.0)]
        result = graham_pack(items, [1.0])
        assert result.num_scheduled == 0

    def test_negative_segment_rejected(self):
        with pytest.raises(ValueError):
            graham_pack([], [-1.0])


@given(
    sizes=st.lists(st.floats(min_value=0.01, max_value=1.0), min_size=1, max_size=12),
    segments=st.lists(st.floats(min_value=0.05, max_value=1.0), min_size=1, max_size=6),
)
@settings(max_examples=50, deadline=None)
def test_property_packing_hierarchy(sizes, segments):
    items = [KnapsackItem(i, s, s) for i, s in enumerate(sizes)]
    g = graham_pack(items, segments)
    lp = lp_pack(items, segments)
    ub = merged_upper_bound(items, segments)
    assert g.total_gain <= ub + 1e-6
    assert lp.total_gain <= ub + 1e-6
