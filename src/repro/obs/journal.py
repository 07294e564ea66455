"""Structured decision journal (JSONL).

Every tuner decision, index build/delete, interleave slot fill and
build kill is recorded as one JSON object with an ``event`` type and a
simulated timestamp ``t`` (absolute seconds). Payload values may nest:
a build or delete carries its index's gain breakdown as a dict, and a
tuner decision carries the gains of every index it scored as one
table, a dict of equal-length columns (see
:func:`repro.tuning.gain.gain_table`).
Events are kept in memory in emission order — which is itself
deterministic under a fixed seed — and serialised with sorted keys and
fixed separators, so two same-seed runs produce byte-identical files.

The no-op base class makes journalling free when disabled; emit sites
that build non-trivial payloads should still guard on
``journal.enabled`` (or ``Observation.enabled``) to skip the payload
construction entirely.
"""

from __future__ import annotations

import json
from pathlib import Path

#: The canonical JSON text of one record: sorted keys, no spaces. One
#: shared encoder, because ``json.dumps`` with options builds a new
#: ``JSONEncoder`` per call; the recovery WAL encodes its bodies with it.
canonical_json = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


class Journal:
    """No-op journal: default sink for every instrumented component."""

    __slots__ = ()

    #: Whether events are recorded; guard expensive payload builds on it.
    enabled: bool = False

    def emit(self, event: str, t: float, **payload: object) -> None:
        """Record one event at simulated time ``t`` (no-op)."""


class RecordingJournal(Journal):
    """Accumulates events for JSONL export."""

    __slots__ = ("events",)

    enabled = True

    def __init__(self) -> None:
        self.events: list[dict[str, object]] = []

    def emit(self, event: str, t: float, **payload: object) -> None:
        record: dict[str, object] = {"event": event, "t": t}
        record.update(payload)
        self.events.append(record)

    def __len__(self) -> int:
        return len(self.events)

    def counts_by_event(self) -> dict[str, int]:
        """Event-type histogram (for report summaries), names sorted."""
        counts: dict[str, int] = {}
        for record in self.events:
            name = str(record["event"])
            counts[name] = counts.get(name, 0) + 1
        return {name: counts[name] for name in sorted(counts)}

    def to_jsonl(self) -> str:
        return "".join(canonical_json(record) + "\n" for record in self.events)

    def write_jsonl(self, path: str | Path) -> None:
        Path(path).write_text(self.to_jsonl())
