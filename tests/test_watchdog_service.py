"""Service-level tests for the ROI ledger and regression watchdog.

Covers the three integration contracts:

* ``roi_ledger=True`` is *observe-only*: a ledgered run is
  behaviour-identical (every timestamp, bill and counter) to a
  flags-off run — only the journal/metrics artifacts grow.
* With both flags off no ledger/watchdog event ever appears, so
  default-run artifacts stay byte-identical to pre-ledger builds.
* With ``watchdog_rollback=True`` a workload shift that strands a
  once-useful index gets the index flagged and dropped through the
  ordinary delete path, deterministically.
"""

from __future__ import annotations

from dataclasses import replace

from repro.core.config import ExperimentConfig
from repro.core.metrics import ServiceMetrics
from repro.core.service import QaaSService, Strategy
from repro.dataflow.client import ArrivalEvent, build_workload
from repro.obs import Observation

from tests.test_determinism_repeat import fingerprint


def _config(**overrides) -> ExperimentConfig:
    base = ExperimentConfig(
        total_time_s=30 * 60.0,
        max_skyline=2,
        scheduler_containers=10,
        max_candidates=40,
        max_queued_gain=10,
        seed=5,
    )
    return replace(base, **overrides) if overrides else base


def run_once(
    config: ExperimentConfig, obs: Observation | None = None
) -> tuple[ServiceMetrics, QaaSService]:
    workload = build_workload(config.pricing, seed=config.seed)
    service = QaaSService(workload, config, Strategy.GAIN, obs=obs)
    events = [ArrivalEvent(time=(i + 1) * 120.0, app="montage") for i in range(6)]
    return service.run(events), service


def test_roi_ledger_run_is_behaviour_identical_to_disabled() -> None:
    plain, _ = run_once(_config())
    ledgered, _ = run_once(_config(roi_ledger=True), obs=Observation.recording())
    assert fingerprint(plain) == fingerprint(ledgered)


def test_flags_off_run_emits_no_ledger_events() -> None:
    obs = Observation.recording()
    run_once(_config(), obs=obs)
    events = {str(e["event"]) for e in obs.journal.events}
    assert not events & {"index_probe", "index_roi", "index_regression"}
    snapshot = obs.metrics.snapshot()
    ledger_keys = [
        n
        for section in ("counters", "gauges")
        for n in snapshot[section]  # type: ignore[union-attr]
        if n.startswith(("ledger/", "watchdog/"))
    ]
    assert ledger_keys == []


def test_roi_ledger_emits_probe_and_roi_events() -> None:
    obs = Observation.recording()
    metrics, service = run_once(_config(roi_ledger=True), obs=obs)
    probes = [e for e in obs.journal.events if e["event"] == "index_probe"]
    rois = [e for e in obs.journal.events if e["event"] == "index_roi"]
    assert probes, "expected realized-benefit attribution in 30 quanta"
    assert rois, "expected closing ROI statements"
    # The final statements (finish_run) cover every account, sorted.
    final_t = max(float(e["t"]) for e in rois)
    finals = [e for e in rois if e["t"] == final_t]
    names = [str(e["index"]) for e in finals]
    assert names == sorted(names)
    assert service._watchdog is not None
    for event in finals:
        name = str(event["index"])
        assert event["net_dollars"] == (
            service._watchdog.ledger.net_dollars(name, final_t)
        )
    # Probe dollars follow the quantum price: saved_s / 60 * 0.1.
    for event in probes:
        assert abs(
            float(event["saved_dollars"])
            - float(event["saved_seconds"]) / 60.0 * 0.1
        ) < 1e-12
    assert obs.metrics.counter("ledger/probes").value == len(probes)


def test_roi_ledger_is_deterministic_across_runs() -> None:
    obs_a, obs_b = Observation.recording(), Observation.recording()
    run_once(_config(roi_ledger=True), obs=obs_a)
    run_once(_config(roi_ledger=True), obs=obs_b)
    assert obs_a.journal.to_jsonl() == obs_b.journal.to_jsonl()
    assert obs_a.metrics.to_json() == obs_b.metrics.to_json()


# ----------------------------------------------------------------------
# Watchdog rollback under a workload shift
# ----------------------------------------------------------------------
def _shift_events() -> list[ArrivalEvent]:
    """Montage warms indexes up; the tail is ligo-only, so every montage
    index sits on rent with no probes."""
    events = [ArrivalEvent(time=(i + 1) * 120.0, app="montage") for i in range(4)]
    events += [
        ArrivalEvent(time=1000.0 + i * 300.0, app="ligo") for i in range(12)
    ]
    return events


def _shift_config(**overrides) -> ExperimentConfig:
    return _config(
        total_time_s=90 * 60.0,
        watchdog_window_quanta=5.0,
        watchdog_hysteresis=1,
        **overrides,
    )


def run_shift(config: ExperimentConfig) -> tuple[ServiceMetrics, Observation]:
    obs = Observation.recording()
    workload = build_workload(config.pricing, seed=config.seed)
    service = QaaSService(workload, config, Strategy.GAIN, obs=obs)
    return service.run(_shift_events()), obs


def test_watchdog_flags_stranded_index_and_rolls_it_back() -> None:
    metrics, obs = run_shift(_shift_config(watchdog_rollback=True))
    regressions = [
        e for e in obs.journal.events if e["event"] == "index_regression"
    ]
    assert regressions, "workload shift should strand at least one index"
    flagged = {str(e["index"]) for e in regressions}
    deletes = [e for e in obs.journal.events if e["event"] == "index_delete"]
    deleted = {str(e["index"]) for e in deletes}
    rolled_back = flagged & deleted
    assert rolled_back, "flagged indexes must be dropped via the delete path"
    # Rollback follows its flag, never precedes it.
    for name in sorted(rolled_back):
        flag_t = min(float(e["t"]) for e in regressions if e["index"] == name)
        del_t = min(float(e["t"]) for e in deletes if e["index"] == name)
        assert del_t >= flag_t
    assert obs.metrics.counter("watchdog/rollbacks").value >= 1


def test_watchdog_observe_only_flags_without_deleting() -> None:
    config = _shift_config(roi_ledger=True)  # watchdog_rollback stays off
    metrics, obs = run_shift(config)
    regressions = [
        e for e in obs.journal.events if e["event"] == "index_regression"
    ]
    assert regressions, "observe-only watchdog still flags"
    assert obs.metrics.counter("watchdog/rollbacks").value == 0
    # And the observe-only run stays behaviour-identical to flags-off.
    plain, _ = run_once_shift_plain()
    assert fingerprint(metrics) == fingerprint(plain)


def run_once_shift_plain() -> tuple[ServiceMetrics, QaaSService]:
    config = _config(total_time_s=90 * 60.0)
    workload = build_workload(config.pricing, seed=config.seed)
    service = QaaSService(workload, config, Strategy.GAIN)
    return service.run(_shift_events()), service


def test_watchdog_rollback_is_deterministic() -> None:
    _, obs_a = run_shift(_shift_config(watchdog_rollback=True))
    _, obs_b = run_shift(_shift_config(watchdog_rollback=True))
    assert obs_a.journal.to_jsonl() == obs_b.journal.to_jsonl()
    assert obs_a.metrics.to_json() == obs_b.metrics.to_json()
