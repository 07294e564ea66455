"""Plain-text reporting helpers for experiments.

The simulator's consumers (CLI, examples, benchmark harnesses) all need
the same three renderings: labelled bar charts (Figure 12/14 style),
time-series strips (Figure 13 style), and aligned comparison tables.
Everything is pure text so results render anywhere a terminal does.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence


def bar_chart(
    items: Sequence[tuple[str, float]],
    width: int = 40,
    unit: str = "",
) -> str:
    """Horizontal bar chart, one row per (label, value).

    Values must be non-negative; bars scale to the maximum.
    """
    if not items:
        return "(no data)"
    if any(v < 0 for _, v in items):
        raise ValueError("bar_chart values must be non-negative")
    peak = max(v for _, v in items) or 1.0
    label_w = max(len(label) for label, _ in items)
    lines = []
    for label, value in items:
        bar = "#" * max(1 if value > 0 else 0, round(width * value / peak))
        lines.append(f"{label:<{label_w}}  {value:>10.2f}{unit}  {bar}")
    return "\n".join(lines)


def timeseries(
    points: Sequence[tuple[float, float]],
    width: int = 60,
    height: int = 8,
) -> str:
    """A small scatter strip of (x, y) points on a character grid."""
    if not points:
        return "(no data)"
    xs = [x for x, _ in points]
    ys = [y for _, y in points]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    x_span = (x_hi - x_lo) or 1.0
    y_span = (y_hi - y_lo) or 1.0
    grid = [[" "] * width for _ in range(height)]
    for x, y in points:
        col = min(width - 1, int((x - x_lo) / x_span * (width - 1)))
        row = min(height - 1, int((y_hi - y) / y_span * (height - 1)))
        grid[row][col] = "*"
    lines = [f"{y_hi:>10.1f} |" + "".join(grid[0])]
    for row in grid[1:-1]:
        lines.append(" " * 10 + " |" + "".join(row))
    if height > 1:
        lines.append(f"{y_lo:>10.1f} |" + "".join(grid[-1]))
    lines.append(" " * 12 + "-" * width)
    lines.append(f"{'':>12}{x_lo:<.1f}{'':>{max(1, width - 16)}}{x_hi:.1f}")
    return "\n".join(lines)


@dataclass(frozen=True)
class MetricsRow:
    """One strategy's headline numbers for the comparison table."""

    label: str
    finished: int
    cost_per_dataflow_quanta: float
    avg_makespan_quanta: float
    killed_pct: float
    storage_dollars: float


def comparison_table(rows: Sequence[MetricsRow]) -> str:
    """The Figure 12/14-style strategy comparison as aligned text."""
    if not rows:
        return "(no data)"
    headers = ["strategy", "#dataflows", "cost/df (q)", "makespan (q)",
               "killed %", "storage $"]
    widths = [max(10, max(len(r.label) for r in rows) + 2), 12, 13, 14, 10, 11]
    out = ["".join(f"{h:<{w}}" for h, w in zip(headers, widths))]
    out.append("-" * sum(widths))
    for r in rows:
        cells = [r.label, r.finished, f"{r.cost_per_dataflow_quanta:.2f}",
                 f"{r.avg_makespan_quanta:.2f}", f"{r.killed_pct:.1f}",
                 f"{r.storage_dollars:.2f}"]
        out.append("".join(f"{str(c):<{w}}" for c, w in zip(cells, widths)))
    return "\n".join(out)


def obs_summary(
    snapshot: dict,
    event_counts: dict[str, int] | None = None,
) -> str:
    """Observability roll-up: counters, histograms, journal event counts.

    ``snapshot`` is a :meth:`repro.obs.MetricsRegistry.snapshot` dict;
    ``event_counts`` comes from
    :meth:`repro.obs.RecordingJournal.counts_by_event`. Names are sorted
    so the block is stable across same-seed runs.
    """
    lines = ["observability summary:"]
    counters = snapshot.get("counters", {})
    if counters:
        name_w = max(len(n) for n in counters)
        for name in sorted(counters):
            lines.append(f"  {name:<{name_w}}  {counters[name]:>12.0f}")
    gauges = snapshot.get("gauges", {})
    if gauges:
        name_w = max(len(n) for n in gauges)
        for name in sorted(gauges):
            lines.append(f"  {name:<{name_w}}  {gauges[name]:>12.4f}")
    for name in sorted(snapshot.get("histograms", {})):
        hist = snapshot["histograms"][name]
        lines.append(f"  {name}: n={hist['count']} sum={hist['sum']:.1f}s")
    if event_counts:
        lines.append("  journal events:")
        event_w = max(len(e) for e in event_counts)
        for event in sorted(event_counts):
            lines.append(f"    {event:<{event_w}}  {event_counts[event]:>8d}")
    if len(lines) == 1:
        lines.append("  (no instruments recorded)")
    return "\n".join(lines)


def roi_table(rows: Sequence[dict]) -> str:
    """Per-index ROI statements as an aligned text table.

    ``rows`` are ``index_roi`` payload dicts (see
    :meth:`repro.obs.IndexLedger.roi_payload`), rendered in the given
    order with fixed-precision dollars so the table is byte-stable
    across same-seed runs.
    """
    if not rows:
        return "(no index accounts)"
    headers = ["index", "live", "build $", "storage $", "predicted $",
               "probes", "realized $", "net $"]
    label_w = max(10, max(len(str(r["index"])) for r in rows) + 2)
    widths = [label_w, 6, 10, 11, 13, 8, 12, 12]
    out = ["".join(f"{h:<{w}}" for h, w in zip(headers, widths))]
    out.append("-" * sum(widths))
    for r in rows:
        cells = [
            str(r["index"]),
            "yes" if r.get("live") else "no",
            f"{r.get('build_cost_dollars', 0.0):.4f}",
            f"{r.get('storage_cost_dollars', 0.0):.4f}",
            f"{r.get('predicted_combined_dollars', 0.0):.4f}",
            str(r.get("probes", 0)),
            f"{r.get('realized_dollars', 0.0):.4f}",
            f"{r.get('net_dollars', 0.0):.4f}",
        ]
        out.append("".join(f"{c:<{w}}" for c, w in zip(cells, widths)))
    return "\n".join(out)


def metrics_row(label: str, metrics) -> MetricsRow:
    """Build a comparison row from a ServiceMetrics object."""
    return MetricsRow(
        label=label,
        finished=metrics.num_finished,
        cost_per_dataflow_quanta=metrics.cost_per_dataflow_quanta(),
        avg_makespan_quanta=metrics.avg_makespan_quanta(),
        killed_pct=metrics.killed_percentage(),
        storage_dollars=metrics.storage_dollars(),
    )
