"""Exploration tests for the multi-tenant bulkhead scenario.

The ``tenants`` scenario interleaves two tenant services' action
streams through shared epochs; the cross-tenant oracle must stay silent
for every schedule (bulkheads share nothing), and must fire when two
tenants' state digests move in one micro-step.
"""

from __future__ import annotations

from repro.explore import Scenario, explore, run_schedule
from repro.explore.hooks import Action
from repro.explore.oracle import CrossTenantOracle
from repro.explore.strategies import DfsStrategy, DfsTree


class _FakeIndex:
    def __init__(self, built: int) -> None:
        self._built = built

    def built_partition_ids(self):
        return list(range(self._built))


class _FakeService:
    """Just enough surface for the oracle's integer digests."""

    def __init__(self) -> None:
        self.catalog = type(
            "Catalog", (), {"indexes": {"ix": _FakeIndex(0)}}
        )()
        self._live = 0

    def build(self) -> None:
        self.catalog.indexes["ix"]._built += 1
        self._live += 1

    @property
    def storage(self):
        outer = self

        class _Storage:
            @property
            def live_count(self) -> int:
                return outer._live

        return _Storage()


def _action() -> Action:
    return Action(
        key="build:ix:0",
        kind="build",
        gen=iter(()),
        resources=frozenset(),
        entry="build.storage_put",
    )


class TestCrossTenantOracle:
    def test_silent_when_one_tenant_moves(self):
        a, b = _FakeService(), _FakeService()
        oracle = CrossTenantOracle([a, b])
        a.build()
        assert oracle.on_step(_action()) == []
        b.build()
        assert oracle.on_step(_action()) == []

    def test_fires_when_two_tenants_move_in_one_step(self):
        a, b = _FakeService(), _FakeService()
        oracle = CrossTenantOracle([a, b])
        a.build()
        b.build()
        violations = oracle.on_step(_action())
        assert [v.name for v in violations] == ["cross-tenant-leak"]
        assert "mutated tenants [0, 1]" in violations[0].detail

    def test_resets_baseline_after_each_step(self):
        a, b = _FakeService(), _FakeService()
        oracle = CrossTenantOracle([a, b])
        a.build()
        b.build()
        assert oracle.on_step(_action())  # the leak step
        assert oracle.on_step(_action()) == []  # steady state again


class TestTenantsScenario:
    def test_exhaustive_exploration_is_clean(self):
        report = explore(Scenario("tenants", seed=3), mode="exhaustive", depth=8)
        assert report.ok
        assert report.schedules > 10
        assert report.distinct_orderings > 10
        assert report.checks > 0

    def test_random_walks_are_clean_and_reproducible(self):
        r1 = explore(Scenario("tenants", seed=5), mode="random", budget=6)
        r2 = explore(Scenario("tenants", seed=5), mode="random", budget=6)
        assert r1.ok and r2.ok
        assert r1.schedules == r2.schedules == 6

    def test_scenario_builds_two_bulkheads(self):
        run = Scenario("tenants", seed=1).build()
        assert len(run.extras) == 1
        extra_service, _extra_state = run.extras[0]
        assert run.service is not extra_service
        assert run.service.storage is not extra_service.storage
        assert run.service.config.seed != extra_service.config.seed

    def test_single_schedule_checks_every_bulkhead(self):
        scenario = Scenario("tenants", seed=2)
        _controller, violations, checks = run_schedule(
            scenario, DfsStrategy(DfsTree(None))
        )
        assert violations == ()
        assert checks > 0
