"""Differential test: the journal's gain tables vs ``IndexGain.breakdown``.

A ``tuner_decision`` event journals its gains as one table (each
breakdown key mapping to one list, one row per index) built by
transposing the ``IndexGain`` tuples. The per-index ``breakdown()``
dict, which ``index_build`` and ``index_delete`` still carry, is the
oracle: cell ``f`` at row ``k`` must equal ``breakdown()[f]`` of the
gain named at row ``k``, with the flags ``breakdown`` derives itself,
and the rows must be every gain the decision scored, in name order.
"""

from __future__ import annotations

import json

import pytest

from repro import run_experiment
from repro.core.service import Strategy
from repro.obs import Observation
from repro.tuning.gain import IndexGain
from repro.tuning.tuner import OnlineIndexTuner

from tests.golden import hooked_config


def assert_table_matches_breakdowns(
    table: dict[str, list[object]], gains: dict[str, IndexGain]
) -> None:
    names = table["index"]
    assert names == sorted(gains)
    for k, name in enumerate(names):
        expected = gains[name].breakdown()
        assert set(table) == set(expected)
        for field, column in table.items():
            assert len(column) == len(names), field
            assert column[k] == expected[field], (name, field)
            assert repr(column[k]) == repr(expected[field]), (name, field)


def test_every_decision_table_matches_the_breakdowns(monkeypatch: pytest.MonkeyPatch) -> None:
    decided = []
    on_dataflow = OnlineIndexTuner.on_dataflow

    def recording(self, *args, **kwargs):
        decision = on_dataflow(self, *args, **kwargs)
        decided.append(decision)
        return decision

    monkeypatch.setattr(OnlineIndexTuner, "on_dataflow", recording)
    obs = Observation.recording()
    run_experiment(Strategy.GAIN, config=hooked_config(), interleaver="online", obs=obs)
    # Read the tables back as a journal reader does: floats round-trip.
    events = [
        record
        for record in map(json.loads, obs.journal.to_jsonl().splitlines())
        if record["event"] == "tuner_decision"
    ]
    assert len(events) == len(decided) > 0
    for event, decision in zip(events, decided):
        assert_table_matches_breakdowns(event["gains"], decision.gains)
        ranked = [g.index_name for g in decision.ranked]
        assert event["ranked"] == ranked
        beneficial = dict(zip(event["gains"]["index"], event["gains"]["beneficial"]))
        assert all(beneficial[name] for name in ranked)
