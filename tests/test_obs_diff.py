"""Unit tests for the structural artifact diff (``repro.obs.diff``)."""

from __future__ import annotations

import json

from repro.obs import (
    artifact_divergence,
    diff_journals,
    diff_metrics,
    diff_traces,
)


def jl(*records: dict) -> str:
    return "".join(
        json.dumps(r, sort_keys=True, separators=(",", ":")) + "\n" for r in records
    )


# ----------------------------------------------------------------------
# Journal diffs
# ----------------------------------------------------------------------
def test_identical_journals_have_no_divergence() -> None:
    text = jl({"event": "a", "t": 1.0}, {"event": "b", "t": 2.0})
    assert diff_journals(text, text) is None


def test_journal_event_type_divergence_names_both_events() -> None:
    a = jl({"event": "index_build", "t": 10.0})
    b = jl({"event": "index_delete", "t": 10.0})
    d = diff_journals(a, b)
    assert d is not None
    assert d.location == "event 0"
    assert "index_build@t=10.0" in d.a
    assert "index_delete@t=10.0" in d.b


def test_journal_payload_divergence_names_first_differing_key() -> None:
    a = jl({"event": "x", "t": 1.0, "index": "i1", "size_mb": 10})
    b = jl({"event": "x", "t": 1.0, "index": "i1", "size_mb": 20})
    d = diff_journals(a, b)
    assert d is not None
    assert "key 'size_mb'" in d.location
    assert (d.a, d.b) == ("10", "20")


def test_journal_table_divergence_names_the_cell_and_its_index() -> None:
    table = {
        "index": ["t0__a", "t0__b", "t1__c"],
        "samples": [1, 2, 3],
        "time_gain_quanta": [0.5, -1.0, 2.0],
    }
    changed = dict(table, time_gain_quanta=[0.5, -1.0, 2.25])
    a = jl({"event": "tuner_decision", "t": 60.0, "gains": table, "ranked": ["t1__c"]})
    b = jl({"event": "tuner_decision", "t": 60.0, "gains": changed, "ranked": ["t1__c"]})
    d = diff_journals(a, b)
    assert d is not None
    assert d.location == (
        "event 0 (tuner_decision@t=60.0) key 'gains' "
        "at gains.time_gain_quanta[2] (index 't1__c')"
    )
    assert (d.a, d.b) == ("2.0", "2.25")
    # A list that is no table column names the position only.
    c = jl({"event": "tuner_decision", "t": 60.0, "gains": table, "ranked": ["t0__a"]})
    d = diff_journals(a, c)
    assert d is not None
    assert d.location.endswith("key 'ranked' at ranked[0]")
    assert (d.a, d.b) == ("t1__c", "t0__a")


def test_journal_length_divergence_reports_counts_and_extra_event() -> None:
    a = jl({"event": "x", "t": 1.0}, {"event": "y", "t": 2.0})
    b = jl({"event": "x", "t": 1.0})
    d = diff_journals(a, b)
    assert d is not None
    assert d.location == "event 1"
    assert d.a == "2 events"
    assert "y@t=2.0" in d.b


# ----------------------------------------------------------------------
# Metrics / trace diffs
# ----------------------------------------------------------------------
def test_metrics_divergence_gives_key_path() -> None:
    a = json.dumps({"counters": {"x": 1, "y": 2}, "gauges": {}})
    b = json.dumps({"counters": {"x": 1, "y": 3}, "gauges": {}})
    d = diff_metrics(a, b)
    assert d is not None
    assert d.location == "key counters.y"
    assert (d.a, d.b) == ("2", "3")
    assert diff_metrics(a, a) is None


def test_metrics_missing_key_reported_as_absent() -> None:
    a = json.dumps({"counters": {"x": 1}})
    b = json.dumps({"counters": {}})
    d = diff_metrics(a, b)
    assert d is not None
    assert d.location == "key counters.x"
    assert d.b == "<absent>"


def test_trace_divergence_indexes_into_trace_events() -> None:
    ev = {"ph": "X", "name": "op", "ts": 1.0, "dur": 2.0, "pid": 1, "tid": 1}
    ev2 = dict(ev, dur=3.0)
    a = json.dumps({"traceEvents": [ev]})
    b = json.dumps({"traceEvents": [ev2]})
    d = diff_traces(a, b)
    assert d is not None
    assert d.location == "traceEvents[0]"
    c = json.dumps({"traceEvents": [ev, ev]})
    d2 = diff_traces(a, c)
    assert d2 is not None
    assert d2.location == "traceEvents.length"


# ----------------------------------------------------------------------
# Artifact dispatch
# ----------------------------------------------------------------------
def test_artifact_divergence_dispatches_by_name() -> None:
    a = jl({"event": "x", "t": 1.0, "k": 1}).encode()
    b = jl({"event": "x", "t": 1.0, "k": 2}).encode()
    described = artifact_divergence("events.jsonl", a, b)
    assert described is not None and described.startswith("journal:")
    assert artifact_divergence("events.jsonl", a, a) is None

    ma = json.dumps({"counters": {"c": 1}}).encode()
    mb = json.dumps({"counters": {"c": 2}}).encode()
    described = artifact_divergence("metrics.json", ma, mb)
    assert described is not None and described.startswith("metrics:")

    ta = json.dumps({"traceEvents": []}).encode()
    tb = json.dumps({"traceEvents": [{"ph": "i"}]}).encode()
    described = artifact_divergence("trace.json", ta, tb)
    assert described is not None and described.startswith("trace:")


def test_unknown_artifact_falls_back_to_byte_offset() -> None:
    described = artifact_divergence("blob.bin", b"aaaa", b"aaba")
    assert described is not None
    assert "byte 2" in described
