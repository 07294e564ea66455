"""Tests for the online index tuner (Algorithm 1)."""

import pytest

from repro.cloud.pricing import PAPER_PRICING
from repro.data.catalog import Catalog
from repro.data.index_model import IndexSpec
from repro.data.table import (
    Column,
    ColumnType,
    TableSchema,
    TableStatistics,
    partition_table,
)
from repro.dataflow.graph import Dataflow
from repro.dataflow.operator import DataFile, Operator
from repro.obs import Observation
from repro.scheduling.skyline import SkylineScheduler
from repro.tuning.gain import GainModel, GainParameters
from repro.tuning.history import DataflowHistory
from repro.tuning.tuner import OnlineIndexTuner

from tests.differential.test_gain_table_oracle import assert_table_matches_breakdowns


def make_catalog(num_tables=2, size_mb=50.0):
    catalog = Catalog(pricing=PAPER_PRICING)
    schema_cols = (Column("k", ColumnType.INTEGER), Column("pay", ColumnType.TEXT))
    stats = TableStatistics(avg_field_bytes={"k": 8.0, "pay": 92.0})
    for i in range(num_tables):
        name = f"t{i}"
        table = partition_table(
            name, TableSchema(name, schema_cols), stats,
            total_records=int(size_mb * 2**20 / 100.0),
        )
        catalog.add_table(table)
        catalog.add_potential_index(IndexSpec(name, ("k",)))
    return catalog


def flow_using(index_names, runtime=200.0, speedup=10.0, name="d1"):
    """A fragmented dataflow whose long branch reads indexed tables."""
    flow = Dataflow(name=name)
    inputs = tuple(DataFile(n.split("__")[0], 50.0) for n in index_names)
    flow.add_operator(Operator(name="a", runtime=20.0))
    flow.add_operator(
        Operator(
            name="long", runtime=runtime, inputs=inputs,
            index_speedup={n: speedup for n in index_names},
        )
    )
    flow.add_operator(Operator(name="short", runtime=15.0))
    flow.add_operator(Operator(name="join", runtime=20.0))
    flow.add_edge("a", "long")
    flow.add_edge("a", "short")
    flow.add_edge("long", "join")
    flow.add_edge("short", "join")
    for n in index_names:
        flow.candidate_indexes.add(n)
    return flow


def make_tuner(catalog, interleaver="lp", **gain_kwargs):
    params = GainParameters(**gain_kwargs) if gain_kwargs else GainParameters()
    return OnlineIndexTuner(
        catalog=catalog,
        gain_model=GainModel(PAPER_PRICING, catalog.cost_model, params),
        history=DataflowHistory(PAPER_PRICING),
        scheduler=SkylineScheduler(PAPER_PRICING, max_skyline=4),
        interleaver=interleaver,
    )


class TestGainBookkeeping:
    def test_dataflow_gains_memoised(self):
        catalog = make_catalog()
        tuner = make_tuner(catalog)
        flow = flow_using(["t0__k"])
        first = tuner.dataflow_gains(flow)
        second = tuner.dataflow_gains(flow)
        assert first is second

    def test_record_execution_lands_in_history(self):
        catalog = make_catalog()
        tuner = make_tuner(catalog)
        tuner.record_execution("d1", 60.0, {"t0__k": 2.0}, {"t0__k": 1.5})
        assert len(tuner.history) == 1
        assert tuner.history.samples_for("t0__k", now=60.0)

    def test_evaluate_includes_queued(self):
        catalog = make_catalog()
        tuner = make_tuner(catalog)
        current = flow_using(["t0__k"], name="cur")
        queued = [flow_using(["t0__k"], name=f"q{i}") for i in range(4)]
        alone = tuner.evaluate_gains(0.0, current=current)["t0__k"]
        with_queue = tuner.evaluate_gains(0.0, current=current, queued=queued)["t0__k"]
        assert with_queue.time_gain_quanta > alone.time_gain_quanta


class TestDecisions:
    def test_beneficial_index_gets_build_candidates(self):
        catalog = make_catalog()
        tuner = make_tuner(catalog)
        # Strong repeated usage makes t0__k beneficial.
        for i in range(3):
            tuner.record_execution(f"h{i}", 0.0, {"t0__k": 5.0}, {"t0__k": 5.0})
        decision = tuner.on_dataflow(flow_using(["t0__k"]), now=60.0)
        assert any(g.index_name == "t0__k" for g in decision.ranked)
        assert decision.chosen.num_builds > 0

    def test_useless_index_not_built(self):
        catalog = make_catalog()
        tuner = make_tuner(catalog)
        flow = flow_using(["t0__k"], runtime=1.0, speedup=1.5)
        decision = tuner.on_dataflow(flow, now=0.0)
        assert decision.ranked == []
        assert decision.chosen.num_builds == 0

    def test_deletion_flagged_when_gains_fade(self):
        catalog = make_catalog()
        tuner = make_tuner(catalog, fade_quanta=1.0)
        index = catalog.index("t0__k")
        for p in index.table.partitions:
            index.mark_built(p.partition_id, time=0.0)
        # History is ancient; a new dataflow that does not use t0 arrives.
        tuner.record_execution("old", 0.0, {"t0__k": 5.0}, {"t0__k": 5.0})
        decision = tuner.on_dataflow(flow_using(["t1__k"]), now=6000.0)
        assert "t0__k" in decision.to_delete

    def test_periodic_cleanup(self):
        catalog = make_catalog()
        tuner = make_tuner(catalog, fade_quanta=1.0)
        index = catalog.index("t0__k")
        for p in index.table.partitions:
            index.mark_built(p.partition_id, time=0.0)
        tuner.record_execution("old", 0.0, {"t0__k": 5.0}, {"t0__k": 5.0})
        tuner.obs = obs = Observation.recording()
        gains = tuner.evaluate_gains(6000.0)
        assert tuner.periodic_cleanup(now=6000.0) == ["t0__k"]
        assert tuner.periodic_cleanup(now=0.0) == []
        # Each cleanup journals the breakdowns of the indexes it flags.
        flagged, kept = obs.journal.events
        assert flagged["to_delete"] == ["t0__k"]
        assert_table_matches_breakdowns(flagged["gains"], {"t0__k": gains["t0__k"]})
        assert kept["gains"] == {field: [] for field in flagged["gains"]}

    def test_decision_carries_original_gains(self):
        catalog = make_catalog()
        tuner = make_tuner(catalog)
        flow = flow_using(["t0__k"])
        decision = tuner.on_dataflow(flow, now=0.0)
        assert "t0__k" in decision.dataflow_time_gains
        assert decision.dataflow_time_gains["t0__k"] > 0

    def test_interleaver_validation(self):
        catalog = make_catalog()
        with pytest.raises(ValueError):
            make_tuner(catalog, interleaver="bogus")

    def test_online_interleaver_works_end_to_end(self):
        catalog = make_catalog()
        tuner = make_tuner(catalog, interleaver="online")
        for i in range(3):
            tuner.record_execution(f"h{i}", 0.0, {"t0__k": 5.0}, {"t0__k": 5.0})
        decision = tuner.on_dataflow(flow_using(["t0__k"]), now=60.0)
        assert decision.chosen is not None

    def test_max_candidates_cap(self):
        catalog = make_catalog(num_tables=1, size_mb=2000.0)  # many partitions
        tuner = make_tuner(catalog)
        tuner.max_candidates = 5
        for i in range(3):
            tuner.record_execution(f"h{i}", 0.0, {"t0__k": 50.0}, {"t0__k": 50.0})
        decision = tuner.on_dataflow(flow_using(["t0__k"]), now=60.0)
        gains = decision.gains["t0__k"]
        if gains.beneficial:
            candidates = tuner.build_candidates(decision.ranked)
            assert len(candidates) <= 5


class TestAvailableIndexSpeedup:
    def test_built_index_shrinks_scheduled_runtime(self):
        catalog = make_catalog()
        index = catalog.index("t0__k")
        for p in index.table.partitions:
            index.mark_built(p.partition_id, time=0.0)
        tuner = make_tuner(catalog)
        flow = flow_using(["t0__k"], runtime=300.0, speedup=10.0)
        decision = tuner.on_dataflow(flow, now=0.0)
        long_assignment = decision.chosen.schedule.assignment_of("long")
        # 300 s shrunk ~10x plus index read + input slice.
        assert long_assignment.duration < 300.0
