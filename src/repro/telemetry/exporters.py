"""Trace and metrics exporters.

Three output shapes, all derived from one :class:`TelemetryRegistry`:

* **JSONL** — one JSON object per line per trace record, the shape
  log-processing pipelines want;
* **Chrome trace-event JSON** — loadable in ``chrome://tracing`` /
  Perfetto (``{"traceEvents": [...]}`` with microsecond timestamps);
* **plain-text summary** — per-phase wall-time aggregation plus the
  metric snapshot, for terminals and CI logs.
"""

from __future__ import annotations

import dataclasses
import json
import re
from pathlib import Path
from typing import Any

from repro.errors import TelemetryError
from repro.telemetry.registry import TelemetryRegistry


def _json_default(value: Any) -> Any:
    """Last-resort JSON coercion (numpy scalars mostly)."""
    for kind in (int, float):
        try:
            return kind(value)
        except (TypeError, ValueError):
            continue
    return str(value)


def trace_records(registry: TelemetryRegistry) -> list[dict[str, Any]]:
    """The trace buffer as plain dicts (timestamps in seconds)."""
    return [dataclasses.asdict(event) for event in registry.events]


def write_jsonl(registry: TelemetryRegistry, path: str | Path) -> int:
    """Write the trace as JSON Lines; returns the record count."""
    records = trace_records(registry)
    with open(path, "w", encoding="utf-8") as handle:
        for record in records:
            handle.write(json.dumps(record, default=_json_default))
            handle.write("\n")
    return len(records)


def chrome_trace(registry: TelemetryRegistry) -> dict[str, Any]:
    """The registry as a Chrome trace-event JSON object.

    Spans become complete ("X") events; the final metric snapshot
    rides along in ``otherData`` so one file carries the whole
    observation.
    """
    trace_events = [
        {
            "name": event.name,
            "ph": event.phase,
            "ts": event.ts * 1e6,
            "dur": event.dur * 1e6,
            "pid": 1,
            "tid": 1,
            "cat": event.category or "repro",
            "args": event.args,
        }
        for event in registry.events
    ]
    return {
        "traceEvents": trace_events,
        "displayTimeUnit": "ms",
        "otherData": {
            "metrics": registry.metrics(),
            "dropped_events": registry.dropped_events,
        },
    }


def write_chrome_trace(registry: TelemetryRegistry, path: str | Path) -> int:
    """Write a ``chrome://tracing`` file; returns the event count."""
    payload = chrome_trace(registry)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, default=_json_default)
        handle.write("\n")
    return len(payload["traceEvents"])


def write_trace(
    registry: TelemetryRegistry, path: str | Path, fmt: str = "auto"
) -> int:
    """Write the trace in ``fmt`` (``chrome``, ``jsonl``, or ``auto``
    to pick by file suffix: ``.jsonl`` means JSONL, anything else the
    Chrome format).  Returns the record count."""
    if fmt == "auto":
        fmt = "jsonl" if Path(path).suffix == ".jsonl" else "chrome"
    if fmt == "jsonl":
        return write_jsonl(registry, path)
    if fmt == "chrome":
        return write_chrome_trace(registry, path)
    raise TelemetryError(
        f"unknown trace format {fmt!r} (expected 'chrome', 'jsonl' or 'auto')"
    )


_METRIC_NAME_SAFE = re.compile(r"[^a-zA-Z0-9_:]")


def _openmetrics_name(name: str, prefix: str) -> str:
    """Coerce a dotted metric name to the OpenMetrics charset."""
    flat = _METRIC_NAME_SAFE.sub("_", name.replace(".", "_"))
    return f"{prefix}_{flat}" if prefix else flat


def _openmetrics_labels(labels: dict[str, str] | None) -> str:
    if not labels:
        return ""
    parts = []
    for key, value in sorted(labels.items()):
        escaped = str(value).replace("\\", "\\\\").replace('"', '\\"')
        parts.append(f'{key}="{escaped}"')
    return "{" + ",".join(parts) + "}"


def openmetrics_exposition(
    metrics: dict[str, dict[str, Any]],
    *,
    prefix: str = "repro",
    labels: dict[str, str] | None = None,
    terminate: bool = True,
) -> str:
    """Render a :meth:`TelemetryRegistry.metrics` snapshot as an
    OpenMetrics text exposition.

    Counters become ``<prefix>_<name>_total`` counter families, gauges
    plain gauges, histograms a ``count``/``sum`` pair plus ``min``/
    ``max``/``std`` gauges.  This is the wire format the future HTTP
    monitoring service will serve; ``repro report --format openmetrics``
    uses it today for the latest ledger snapshot.  ``terminate=False``
    omits the ``# EOF`` line so several expositions can concatenate.
    """
    tag = _openmetrics_labels(labels)
    lines: list[str] = []
    for name in sorted(metrics.get("counters", {})):
        metric = _openmetrics_name(name, prefix)
        lines.append(f"# TYPE {metric} counter")
        lines.append(f"{metric}_total{tag} {metrics['counters'][name]}")
    for name in sorted(metrics.get("gauges", {})):
        metric = _openmetrics_name(name, prefix)
        lines.append(f"# TYPE {metric} gauge")
        lines.append(f"{metric}{tag} {metrics['gauges'][name]:.10g}")
    for name in sorted(metrics.get("histograms", {})):
        stats = metrics["histograms"][name]
        metric = _openmetrics_name(name, prefix)
        lines.append(f"# TYPE {metric} summary")
        lines.append(f"{metric}_count{tag} {int(stats.get('count', 0))}")
        lines.append(f"{metric}_sum{tag} {stats.get('total', 0.0):.10g}")
        for part in ("min", "max", "std"):
            if part in stats:
                lines.append(
                    f"{metric}_{part}{tag} {float(stats[part]):.10g}"
                )
    if terminate:
        lines.append("# EOF")
    return "\n".join(lines) + "\n"


def write_openmetrics(
    registry: TelemetryRegistry,
    path: str | Path,
    *,
    labels: dict[str, str] | None = None,
) -> int:
    """Write the registry's metric snapshot as OpenMetrics text;
    returns the number of metric families written."""
    metrics = registry.metrics()
    Path(path).write_text(openmetrics_exposition(metrics, labels=labels))
    return sum(len(metrics.get(kind, {}))
               for kind in ("counters", "gauges", "histograms"))


@dataclasses.dataclass
class PhaseTiming:
    """Aggregated wall time of all spans sharing one name."""

    name: str
    count: int
    total_seconds: float
    mean_seconds: float


def phase_timings(registry: TelemetryRegistry) -> list[PhaseTiming]:
    """Per-phase (span-name) wall-time totals, longest first."""
    totals: dict[str, tuple[int, float]] = {}
    for event in registry.events:
        count, total = totals.get(event.name, (0, 0.0))
        totals[event.name] = (count + 1, total + event.dur)
    return sorted(
        (
            PhaseTiming(name, count, total, total / count)
            for name, (count, total) in totals.items()
        ),
        key=lambda timing: timing.total_seconds,
        reverse=True,
    )


def _format_seconds(seconds: float) -> str:
    if seconds >= 1.0:
        return f"{seconds:8.3f} s "
    if seconds >= 1e-3:
        return f"{seconds * 1e3:8.3f} ms"
    return f"{seconds * 1e6:8.3f} us"


def summary(registry: TelemetryRegistry) -> str:
    """Plain-text report: phase wall times, counters, gauges, histograms."""
    lines: list[str] = []
    timings = phase_timings(registry)
    if timings:
        lines.append("phase wall time")
        width = max(len(timing.name) for timing in timings)
        for timing in timings:
            lines.append(
                f"  {timing.name:{width}s}  x{timing.count:<7d}"
                f"  total {_format_seconds(timing.total_seconds)}"
                f"  mean {_format_seconds(timing.mean_seconds)}"
            )
    metrics = registry.metrics()
    if metrics["counters"]:
        lines.append("counters")
        for name in sorted(metrics["counters"]):
            lines.append(f"  {name:40s} {metrics['counters'][name]:>14d}")
    if metrics["gauges"]:
        lines.append("gauges")
        for name in sorted(metrics["gauges"]):
            lines.append(f"  {name:40s} {metrics['gauges'][name]:>14.6g}")
    if metrics["histograms"]:
        lines.append("histograms")
        for name in sorted(metrics["histograms"]):
            stats = metrics["histograms"][name]
            lines.append(
                f"  {name:40s} n={int(stats['count'])}"
                f" mean={stats['mean']:.4g}"
                f" min={stats['min']:.4g} max={stats['max']:.4g}"
            )
    if registry.dropped_events:
        lines.append(
            f"note: {registry.dropped_events} trace event(s) dropped "
            f"(buffer bound {registry.max_trace_events})"
        )
    return "\n".join(lines) if lines else "telemetry: no data recorded"
