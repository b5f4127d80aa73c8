"""Structured tracing, metrics and profiling for the solver stack.

The package has four layers, meant to be imported from the bottom up:

:mod:`repro.telemetry.clock`
    The single wall-clock utility (``Stopwatch``, ``time_call``).
:mod:`repro.telemetry.registry`
    The process-wide :class:`TelemetryRegistry` — spans, counters,
    gauges, histograms, bounded trace buffer — with a strict
    zero-cost-when-disabled contract.
:mod:`repro.telemetry.exporters`
    JSONL / Chrome trace-event / plain-text renderings of a registry.
:mod:`repro.telemetry.profile`
    Deck-level profiling reports (``repro profile``).

Hot solver code imports the ``registry`` *submodule* and reads
``registry.ACTIVE`` directly; everything else can use the re-exports
below.
"""

from __future__ import annotations

from repro.telemetry.clock import Stopwatch, time_call, wall_time
from repro.telemetry.exporters import (
    PhaseTiming,
    chrome_trace,
    phase_timings,
    summary,
    trace_records,
    write_chrome_trace,
    write_jsonl,
    write_trace,
)
from repro.telemetry.registry import (
    Counter,
    Gauge,
    Histogram,
    Span,
    TelemetryRegistry,
    TraceEvent,
    disable,
    enable,
    get_registry,
    session,
    set_registry,
    span,
)
from repro.telemetry.profile import (
    ProfileReport,
    SolverProfile,
    profile_deck,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "PhaseTiming",
    "ProfileReport",
    "SolverProfile",
    "Span",
    "Stopwatch",
    "TelemetryRegistry",
    "TraceEvent",
    "chrome_trace",
    "disable",
    "enable",
    "get_registry",
    "phase_timings",
    "profile_deck",
    "session",
    "set_registry",
    "span",
    "summary",
    "time_call",
    "trace_records",
    "wall_time",
    "write_chrome_trace",
    "write_jsonl",
    "write_trace",
]
