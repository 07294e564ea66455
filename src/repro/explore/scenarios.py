"""Deterministic exploration scenarios.

A scenario is a pure function of ``(name, seed, params)`` that builds a
*fresh* service run per schedule — every schedule the engine tries must
start from an identical initial state, so :meth:`Scenario.build`
reconstructs the whole world each time.

Three scenarios ship:

* ``toy`` — two epochs of two actions each on a real (tiny) service:
  epoch 1 applies two *independent* builds (distinct indexes, equal
  billing stamps — the partial-order mode collapses their orderings),
  epoch 2 races a build apply of index A against a delete of A (a
  *dependent* pair whose racy orders resurrect a deleted partition).
  Small enough for exhaustive enumeration in tests and CI.
* ``planted`` — the regression fixture: one epoch racing a build apply
  against a delete of the same index, after a canonical setup build.
  The canonical order is clean; any schedule completing the delete
  before the build apply trips the ``delete-racing-build`` oracle —
  including the classic torn interleaving where the delete lands
  between the build's storage-charge and its catalog-insert.
* ``service`` — drive the full service loop (admission, tuner decision,
  slot-fill, settle) for a few steps under the controller: the real
  pipeline's action stream, suited to seeded random walks and bounded
  DFS rather than full enumeration.
* ``tenants`` — two tenant bulkheads (independent services with derived
  seeds) whose build/delete actions interleave in shared epochs. Every
  schedule must keep each mutation inside its own bulkhead — checked
  per micro-step by the :class:`~repro.explore.oracle.CrossTenantOracle`
  over integer state digests — so the scenario is violation-free by
  construction and guards service isolation against regressions (a
  module-level cache or shared store that leaks between instances).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Callable

from repro.core.config import ExperimentConfig, default_config
from repro.core.service import QaaSService, RunState, Strategy
from repro.core.simulator import CompletedBuild
from repro.explore.hooks import Epoch, drive

#: Scenario name -> one-line description (CLI help + replay validation).
SCENARIOS: dict[str, str] = {
    "toy": "2 epochs x 2 actions on a tiny service (exhaustive-friendly)",
    "planted": "build apply racing a delete of the same index (known bug)",
    "service": "the real service loop for a few steps (walk/DFS budget)",
    "tenants": "two tenant bulkheads interleaved (cross-tenant leak oracle)",
}


class ScenarioRun:
    """One fresh, fully constructed run: a service plus an epoch driver.

    ``extras`` carries additional (service, state) pairs for
    multi-tenant scenarios: the engine checks their invariants too and
    arms the cross-tenant oracle over all services.
    """

    def __init__(
        self,
        service: QaaSService,
        state: RunState,
        driver: Callable[[], None],
        extras: tuple[tuple[QaaSService, RunState], ...] = (),
    ) -> None:
        self.service = service
        self.state = state
        self.extras = extras
        self._driver = driver

    def drive(self) -> None:
        """Execute the scenario's epochs (under whatever controller is
        installed)."""
        self._driver()


@dataclass(frozen=True)
class Scenario:
    """A named, seeded scenario; :meth:`build` is pure."""

    name: str
    seed: int = 0
    horizon_quanta: int = 3

    def __post_init__(self) -> None:
        if self.name not in SCENARIOS:
            raise ValueError(
                f"unknown scenario {self.name!r}; valid names: "
                f"{', '.join(sorted(SCENARIOS))}"
            )

    def params(self) -> dict[str, Any]:
        """The replay-file parameter dict that reconstructs this scenario."""
        return {"horizon_quanta": self.horizon_quanta}

    def build(self) -> ScenarioRun:
        if self.name == "toy":
            return _build_toy(self.seed)
        if self.name == "planted":
            return _build_planted(self.seed)
        if self.name == "tenants":
            return _build_tenants(self.seed)
        return _build_service(self.seed, self.horizon_quanta)


def build_scenario(name: str, seed: int = 0, **params: Any) -> Scenario:
    """Scenario factory used by the CLI and the replay loader."""
    return Scenario(name=name, seed=seed, **params)


# ----------------------------------------------------------------------
# Construction helpers
# ----------------------------------------------------------------------
def _tiny_config(seed: int, horizon_quanta: int) -> ExperimentConfig:
    """A small, fault-free config: storage ops draw no randomness, so
    reordered actions consume identical RNG streams (the independence
    oracle's commutativity argument relies on it)."""
    return replace(
        default_config(),
        seed=seed,
        total_time_s=horizon_quanta * 60.0,
        runtime_error=0.0,
        update_interval_s=0.0,
        operator_failure_rate=0.0,
        container_crash_rate=0.0,
        storage_put_failure_rate=0.0,
        storage_delete_failure_rate=0.0,
        straggler_rate=0.0,
    )


def _fresh_service(seed: int, horizon_quanta: int) -> tuple[QaaSService, list]:
    from repro import prepare_run

    service, events = prepare_run(
        Strategy.GAIN, "phase", config=_tiny_config(seed, horizon_quanta)
    )
    return service, events


def _pick_indexes(service: QaaSService, want: int) -> list[str]:
    """The first ``want`` potential indexes with >= 2 partitions."""
    names = [
        name
        for name in sorted(service.catalog.indexes)
        if len(service.catalog.indexes[name].partitions) >= 2
    ]
    if len(names) < want:  # pragma: no cover - catalog invariant
        raise RuntimeError("catalog too small for the exploration scenario")
    return names[:want]


def _completed(name: str, pid: int, at: float) -> CompletedBuild:
    return CompletedBuild(index_name=name, partition_id=pid, finished_at=at)


def _build_toy(seed: int) -> ScenarioRun:
    service, _events = _fresh_service(seed, horizon_quanta=3)
    state = service.begin_run([])
    a, b = _pick_indexes(service, want=2)
    metrics = state.metrics

    def driver() -> None:
        # Epoch 1: two independent build applies (disjoint indexes,
        # equal billing stamps).
        epoch = Epoch("toy:1")
        epoch.offer(service._build_action(_completed(a, 0, 60.0), metrics, None))
        epoch.offer(service._build_action(_completed(b, 0, 60.0), metrics, None))
        epoch.drain("scenario.epoch_end")
        # Epoch 2: a dependent pair — another build of A racing a
        # delete of A (decided, say, by a tuner flip-flop).
        epoch = Epoch("toy:2")
        epoch.offer(service._build_action(_completed(a, 1, 120.0), metrics, None))
        epoch.offer(service._delete_action(a, 120.0, metrics, None))
        epoch.drain("scenario.epoch_end")

    return ScenarioRun(service, state, driver)


def _build_planted(seed: int) -> ScenarioRun:
    service, _events = _fresh_service(seed, horizon_quanta=3)
    state = service.begin_run([])
    (a,) = _pick_indexes(service, want=1)
    metrics = state.metrics

    def driver() -> None:
        # Setup (canonical, outside the explored epoch): partition 0 of
        # A exists, so the delete below has something to drop.
        drive(service._build_action(_completed(a, 0, 30.0), metrics, None))
        # The explored epoch: a late build apply of A[1] racing the
        # tuner's decision to delete A.
        epoch = Epoch("planted:1")
        epoch.offer(service._build_action(_completed(a, 1, 60.0), metrics, None))
        epoch.offer(service._delete_action(a, 60.0, metrics, None))
        epoch.drain("scenario.epoch_end")

    return ScenarioRun(service, state, driver)


def _build_tenants(seed: int) -> ScenarioRun:
    """Two tenant bulkheads whose actions share the explored epochs.

    Each tenant is a plain service with its own derived seed, catalog
    and storage; their action streams are intra-tenant independent, so
    any cross-tenant violation the oracle reports is a real bulkhead
    leak, not a planted race.
    """
    from repro.experiments import derive_seed

    runs: list[tuple[QaaSService, RunState]] = []
    for tenant in range(2):
        service, _events = _fresh_service(
            derive_seed(seed, tenant), horizon_quanta=3
        )
        runs.append((service, service.begin_run([])))
    (s0, st0), (s1, st1) = runs
    a0, b0 = _pick_indexes(s0, want=2)
    a1 = next(n for n in _pick_indexes(s1, want=2) if n != a0)
    m0, m1 = st0.metrics, st1.metrics

    def driver() -> None:
        # Epoch 1: both tenants apply one build; any interleaving must
        # keep each catalog/storage mutation within its own bulkhead.
        epoch = Epoch("tenants:1")
        epoch.offer(s0._build_action(_completed(a0, 0, 60.0), m0, None))
        epoch.offer(s1._build_action(_completed(a1, 0, 60.0), m1, None))
        epoch.drain("scenario.epoch_end")
        # Epoch 2: tenant 0 builds B and drops A (independent indexes)
        # while tenant 1 keeps building — the delete may only ever
        # touch tenant 0's digest.
        epoch = Epoch("tenants:2")
        epoch.offer(s0._build_action(_completed(b0, 0, 120.0), m0, None))
        epoch.offer(s0._delete_action(a0, 120.0, m0, None))
        epoch.offer(s1._build_action(_completed(a1, 1, 120.0), m1, None))
        epoch.drain("scenario.epoch_end")

    return ScenarioRun(s0, st0, driver, extras=((s1, st1),))


def _build_service(seed: int, horizon_quanta: int) -> ScenarioRun:
    service, events = _fresh_service(seed, horizon_quanta)
    state = service.begin_run(events)

    def driver() -> None:
        while service.step(state):
            pass
        service.finish_run(state)

    return ScenarioRun(service, state, driver)
