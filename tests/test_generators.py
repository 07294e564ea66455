"""Tests for the workflow generators and workload clients (Table 4)."""

import numpy as np
import pytest

from repro.cloud.pricing import PAPER_PRICING
from repro.dataflow.client import (
    PAPER_PHASES,
    TOTAL_TIME_S,
    build_workload,
    phase_schedule,
    poisson_arrivals,
    random_schedule,
)
from repro.dataflow.generators import cybershake, ligo, montage

#: Table 4 statistics: app -> (min, max, mean) runtime seconds.
TABLE4_RUNTIME = {
    "montage": (3.82, 49.32, 11.32),
    "ligo": (4.03, 689.39, 222.33),
    "cybershake": (0.55, 199.43, 22.97),
}

#: Table 4 statistics: app -> (count, min MB, max MB, mean MB).
TABLE4_INPUTS = {
    "montage": (20, 0.01, 4.02, 3.22),
    "ligo": (53, 0.86, 14.91, 14.24),
    "cybershake": (52, 1.81, 19169.75, 1459.08),
}


@pytest.fixture(scope="module")
def workload():
    return build_workload(PAPER_PRICING, seed=42)


class TestCatalog:
    def test_125_files(self, workload):
        assert len(workload.catalog.tables) == 125

    def test_total_size_near_paper(self, workload):
        assert workload.catalog.total_size_gb() == pytest.approx(76.69, rel=0.10)

    def test_partition_count_near_713(self, workload):
        assert 600 <= workload.catalog.num_partitions <= 800

    def test_four_potential_indexes_per_file(self, workload):
        assert len(workload.catalog.indexes) == 4 * 125

    def test_deterministic(self):
        a = build_workload(PAPER_PRICING, seed=7)
        b = build_workload(PAPER_PRICING, seed=7)
        assert [t.num_records for t in a.catalog.tables.values()] == [
            t.num_records for t in b.catalog.tables.values()
        ]


@pytest.mark.parametrize("app", ["montage", "ligo", "cybershake"])
class TestDataflowShape:
    def test_100_operators(self, workload, app):
        flow = workload.next_dataflow(app, issued_at=0.0)
        assert len(flow) == 100
        flow.validate()

    def test_runtime_stats_match_table4(self, workload, app):
        low, high, mean = TABLE4_RUNTIME[app]
        runtimes = []
        for _ in range(5):
            flow = workload.next_dataflow(app, issued_at=0.0)
            runtimes.extend(op.runtime for op in flow.operators.values())
        assert min(runtimes) >= low * 0.8
        assert max(runtimes) <= high * 1.05
        assert np.mean(runtimes) == pytest.approx(mean, rel=0.25)

    def test_input_file_stats_match_table4(self, workload, app):
        count, low, high, mean = TABLE4_INPUTS[app]
        flow = workload.next_dataflow(app, issued_at=0.0)
        sizes = [f.size_mb for op in flow.operators.values() for f in op.inputs]
        assert len(sizes) == count
        assert min(sizes) >= low * 0.5
        assert max(sizes) <= high * 1.01
        assert np.mean(sizes) == pytest.approx(mean, rel=0.25)

    def test_candidate_indexes_carry_table6_speedups(self, workload, app):
        from repro.data.catalog import TABLE6_SPEEDUPS

        flow = workload.next_dataflow(app, issued_at=0.0)
        assert flow.candidate_indexes
        speedups = {
            s for op in flow.operators.values() for s in op.index_speedup.values()
        }
        assert speedups <= set(TABLE6_SPEEDUPS.values())

    def test_has_entry_and_exit(self, workload, app):
        flow = workload.next_dataflow(app, issued_at=0.0)
        assert flow.entry_operators()
        assert flow.exit_operators()


class TestOperatorCount:
    """Any app may arrive, so a count one generator cannot build is
    rejected when the workload is built, not at that app's first arrival."""

    @pytest.mark.parametrize("num_ops", [0, 10, 30, 50, 101])
    def test_workload_rejects_a_count_some_app_cannot_build(self, num_ops):
        with pytest.raises(ValueError, match="num_ops|operators"):
            build_workload(PAPER_PRICING, seed=7, num_ops=num_ops)

    @pytest.mark.parametrize("num_ops", [20, 40, 60])
    def test_multiples_of_20_suit_every_app(self, num_ops):
        workload = build_workload(PAPER_PRICING, seed=7, num_ops=num_ops)
        for app in ("montage", "ligo", "cybershake"):
            assert len(workload.next_dataflow(app, issued_at=0.0)) == num_ops

    def test_prepare_run_rejects_before_the_first_step(self):
        from dataclasses import replace

        from repro import prepare_run
        from repro.core.config import default_config
        from repro.core.service import Strategy

        config = replace(
            default_config(), operators_per_dataflow=50, poisson_mean_s=300.0
        )
        with pytest.raises(ValueError, match="ligo num_ops"):
            prepare_run(
                Strategy.GAIN, "phase", config=config, interleaver="online", seed=7
            )

    def test_spec_rejects_a_negative_index_count(self):
        from repro.dataflow.generators.base import WorkflowSpec

        with pytest.raises(ValueError, match="indexes_per_dataflow"):
            WorkflowSpec(app="x", tables=[], table_sizes_mb=[], indexes_per_dataflow=-1)

    @pytest.mark.parametrize(
        "module, bad, good",
        [(montage, 11, 12), (ligo, 30, 40), (cybershake, 9, 10)],
    )
    def test_each_generator_checks_its_own_shape(self, module, bad, good):
        with pytest.raises(ValueError):
            module.check_num_ops(bad)
        module.check_num_ops(good)


class TestGeneratorInputModels:
    @pytest.mark.parametrize(
        "module, key",
        [(montage, "montage"), (ligo, "ligo"), (cybershake, "cybershake")],
    )
    def test_input_sizes_within_bounds(self, module, key):
        count, low, high, _ = TABLE4_INPUTS[key]
        rng = np.random.default_rng(3)
        sizes = module.generate_input_sizes(rng)
        assert len(sizes) == count
        assert min(sizes) >= low * 0.5
        assert max(sizes) <= high


class TestArrivals:
    def test_poisson_mean_interarrival(self):
        rng = np.random.default_rng(0)
        times = list(poisson_arrivals(rng, horizon_s=100_000.0, mean_interarrival_s=60.0))
        gaps = np.diff([0.0, *times])
        assert np.mean(gaps) == pytest.approx(60.0, rel=0.1)
        assert all(t < 100_000.0 for t in times)

    def test_phase_schedule_covers_paper_phases(self):
        rng = np.random.default_rng(1)
        events = phase_schedule(rng)
        assert events[-1].time < TOTAL_TIME_S
        # Every phase window contains only its app.
        offset = 0.0
        for app, duration in PAPER_PHASES:
            in_phase = [e for e in events if offset <= e.time < offset + duration]
            assert in_phase, f"no arrivals in phase {app}"
            assert all(e.app == app for e in in_phase)
            offset += duration

    def test_random_schedule_mixes_apps(self):
        rng = np.random.default_rng(2)
        events = random_schedule(rng, horizon_s=43_200.0)
        apps = {e.app for e in events}
        assert apps == {"montage", "ligo", "cybershake"}

    def test_rejects_bad_parameters(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            list(poisson_arrivals(rng, horizon_s=0.0))
        with pytest.raises(ValueError):
            list(poisson_arrivals(rng, horizon_s=10.0, mean_interarrival_s=0.0))

    def test_unknown_app_rejected(self, workload):
        with pytest.raises(KeyError):
            workload.next_dataflow("spark", issued_at=0.0)
