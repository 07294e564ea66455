"""Structural diff of recorded observability artifacts.

``cmp`` tells you two runs diverged; this module tells you *where*: the
first journal event, metrics key or trace event at which two runs'
artifacts stop agreeing. The chaos harness attaches the localization to
its failure reports and ``repro obs diff`` exposes it directly.

All inputs are the artifact byte strings/files themselves — never live
simulation state — so this stays a pure, deterministic leaf module.
"""

from __future__ import annotations

import json
from dataclasses import dataclass


@dataclass(frozen=True)
class Divergence:
    """The first point at which two artifacts disagree.

    ``location`` is a human-readable anchor (event index, key path or
    byte offset), ``a``/``b`` render the two sides at that anchor.
    """

    artifact: str
    location: str
    a: str
    b: str

    def describe(self) -> str:
        return f"{self.artifact}: first divergence at {self.location}: {self.a} != {self.b}"


def _summ(value: object, limit: int = 160) -> str:
    text = json.dumps(value, sort_keys=True, separators=(",", ":")) if not isinstance(
        value, str
    ) else value
    return text if len(text) <= limit else text[: limit - 3] + "..."


def _event_label(record: dict[str, object]) -> str:
    return f"{record.get('event', '?')}@t={record.get('t', '?')}"


def diff_journals(a_text: str, b_text: str) -> Divergence | None:
    """First divergent event of two journal JSONL strings."""
    a_lines = a_text.splitlines()
    b_lines = b_text.splitlines()
    for i, (la, lb) in enumerate(zip(a_lines, b_lines)):
        if la == lb:
            continue
        try:
            ra, rb = json.loads(la), json.loads(lb)
        except ValueError:
            return Divergence("journal", f"event {i}", _summ(la), _summ(lb))
        if ra.get("event") != rb.get("event") or ra.get("t") != rb.get("t"):
            return Divergence(
                "journal", f"event {i}", _event_label(ra), _event_label(rb)
            )
        # Same event type and time: name the first differing payload key,
        # and the first differing leaf inside it when it holds a container.
        keys = sorted(set(ra) | set(rb))
        for key in keys:
            va, vb = ra.get(key), rb.get(key)
            if va != vb:
                location = f"event {i} ({_event_label(ra)}) key {key!r}"
                found = _walk_first_diff(va, vb, key)
                if found is not None and found[0] != key:
                    location += f" at {found[0]}"
                    va, vb = found[1], found[2]
                return Divergence("journal", location, _summ(va), _summ(vb))
        return Divergence("journal", f"event {i}", _summ(la), _summ(lb))
    if len(a_lines) != len(b_lines):
        i = min(len(a_lines), len(b_lines))
        extra = a_lines[i:] or b_lines[i:]
        side = "a" if len(a_lines) > len(b_lines) else "b"
        try:
            label = _event_label(json.loads(extra[0]))
        except ValueError:
            label = _summ(extra[0])
        return Divergence(
            "journal",
            f"event {i}",
            f"{len(a_lines)} events",
            f"{len(b_lines)} events (side {side} adds {label})",
        )
    return None


def _walk_first_diff(
    a: object, b: object, path: str, rows: list[object] | None = None
) -> tuple[str, object, object] | None:
    """Depth-first search for the first differing leaf, keys sorted.

    A dict whose ``index`` entry is a list is read as a table, one row
    per entry of ``index`` (the journal's gain tables): a difference
    found in one of its list columns also names the row's index, from
    side ``a``, as ``path[k] (index 'name')``. ``rows`` carries that
    ``index`` list into the column being walked.
    """
    if isinstance(a, dict) and isinstance(b, dict):
        index = a.get("index")
        table = index if isinstance(index, list) else None
        for key in sorted(set(a) | set(b)):
            here = f"{path}.{key}" if path else str(key)
            if key not in a:
                return here, "<absent>", b[key]
            if key not in b:
                return here, a[key], "<absent>"
            found = _walk_first_diff(a[key], b[key], here, table)
            if found is not None:
                return found
        return None
    if isinstance(a, list) and isinstance(b, list):
        for i, (va, vb) in enumerate(zip(a, b)):
            here = f"{path}[{i}]"
            if rows is not None and i < len(rows):
                here += f" (index {rows[i]!r})"
            found = _walk_first_diff(va, vb, here)
            if found is not None:
                return found
        if len(a) != len(b):
            return f"{path}.length", len(a), len(b)
        return None
    if a != b:
        return path or "<root>", a, b
    return None


def diff_metrics(a_text: str, b_text: str) -> Divergence | None:
    """First divergent instrument of two metrics-snapshot JSON strings."""
    try:
        a, b = json.loads(a_text), json.loads(b_text)
    except ValueError:
        if a_text != b_text:
            return Divergence("metrics", "unparsable JSON", _summ(a_text), _summ(b_text))
        return None
    found = _walk_first_diff(a, b, "")
    if found is None:
        return None
    path, va, vb = found
    return Divergence("metrics", f"key {path}", _summ(va), _summ(vb))


def diff_traces(a_text: str, b_text: str) -> Divergence | None:
    """First divergent trace event of two Chrome-trace JSON strings."""
    try:
        a, b = json.loads(a_text), json.loads(b_text)
    except ValueError:
        if a_text != b_text:
            return Divergence("trace", "unparsable JSON", _summ(a_text), _summ(b_text))
        return None
    ea = a.get("traceEvents", []) if isinstance(a, dict) else []
    eb = b.get("traceEvents", []) if isinstance(b, dict) else []
    for i, (va, vb) in enumerate(zip(ea, eb)):
        if va != vb:
            return Divergence("trace", f"traceEvents[{i}]", _summ(va), _summ(vb))
    if len(ea) != len(eb):
        return Divergence(
            "trace", "traceEvents.length", str(len(ea)), str(len(eb))
        )
    if a != b:
        found = _walk_first_diff(a, b, "")
        assert found is not None
        path, va2, vb2 = found
        return Divergence("trace", f"key {path}", _summ(va2), _summ(vb2))
    return None


def _diff_bytes(name: str, a: bytes, b: bytes) -> Divergence:
    n = min(len(a), len(b))
    offset = next((i for i in range(n) if a[i] != b[i]), n)
    return Divergence(
        name,
        f"byte {offset}",
        f"{len(a)} bytes",
        f"{len(b)} bytes",
    )


def artifact_divergence(name: str, a: bytes, b: bytes) -> str | None:
    """Localize the first divergence of one named artifact pair.

    Dispatches on the artifact name (``events.jsonl`` → journal diff,
    ``metrics.json`` → metrics diff, ``trace.json`` → trace diff,
    anything else → byte offset). Returns ``None`` when the bytes are
    identical, else a one-line description.
    """
    if a == b:
        return None
    a_text = a.decode("utf-8", errors="replace")
    b_text = b.decode("utf-8", errors="replace")
    divergence: Divergence | None
    if name.endswith(".jsonl"):
        divergence = diff_journals(a_text, b_text)
    elif "metrics" in name:
        divergence = diff_metrics(a_text, b_text)
    elif "trace" in name:
        divergence = diff_traces(a_text, b_text)
    else:
        divergence = None
    if divergence is None:
        divergence = _diff_bytes(name, a, b)
    return divergence.describe()
