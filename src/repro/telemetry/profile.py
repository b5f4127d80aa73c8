"""Deck-level profiling: run a simulation under telemetry and reduce
the trace to the numbers a performance investigation starts from.

This is the library behind ``repro profile``: phase wall times, the
solver's work counters and the adaptive solver's efficiency against
the non-adaptive baseline (which recomputes every rate after every
event, so its sequential-rate work is exactly ``2 x junctions`` per
event).
"""

from __future__ import annotations

import dataclasses
from typing import TYPE_CHECKING

from repro.errors import TelemetryError
from repro.telemetry import registry as _registry
from repro.telemetry.clock import Stopwatch
from repro.telemetry.exporters import PhaseTiming, phase_timings

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.core.base import SolverStats
    from repro.netlist.semsim import SemsimDeck


@dataclasses.dataclass
class SolverProfile:
    """One solver's measured run."""

    solver: str
    wall_seconds: float
    stats: SolverStats


@dataclasses.dataclass
class ProfileReport:
    """Everything ``repro profile`` prints."""

    solver: str
    n_junctions: int
    events: int
    wall_seconds: float
    phases: list[PhaseTiming]
    stats: SolverStats
    rate_evaluations: int
    baseline_rate_evaluations: int
    saved_fraction: float
    dropped_events: int = 0
    baseline: SolverProfile | None = None

    def format(self) -> str:
        """Render the report as the CLI's plain-text summary."""
        lines = [
            f"profile: solver={self.solver}  junctions={self.n_junctions}"
            f"  events={self.events}  wall={self.wall_seconds:.3f} s",
            "",
            "phase wall time",
        ]
        if self.phases:
            width = max(len(timing.name) for timing in self.phases)
            for timing in self.phases:
                lines.append(
                    f"  {timing.name:{width}s}  x{timing.count:<7d}"
                    f"  total {timing.total_seconds:10.4f} s"
                    f"  mean {timing.mean_seconds * 1e3:10.4f} ms"
                )
        else:
            lines.append("  (no spans recorded)")
        lines += ["", self.stats.format_table(f"solver stats ({self.solver})")]
        if self.baseline is not None:
            lines += [
                "",
                self.baseline.stats.format_table(
                    f"solver stats ({self.baseline.solver}, measured baseline)"
                ),
            ]
        lines += [
            "",
            "rate evaluations (sequential)",
            f"  {self.solver} (measured)            {self.rate_evaluations:>14d}",
            f"  non-adaptive baseline         "
            f"{self.baseline_rate_evaluations:>14d}  (2 x junctions x events)",
            f"  work saved                    {self.saved_fraction:>13.1%}",
        ]
        if self.baseline is not None and self.baseline.wall_seconds > 0.0:
            speedup = self.baseline.wall_seconds / max(self.wall_seconds, 1e-12)
            lines.append(
                f"  measured baseline wall        "
                f"{self.baseline.wall_seconds:>12.3f} s  "
                f"(speedup {speedup:.2f}x)"
            )
        if self.dropped_events:
            lines.append(
                f"note: {self.dropped_events} trace span(s) dropped — "
                "phase wall times undercount"
            )
        return "\n".join(lines)


def _run_deck(
    deck: SemsimDeck, solver: str, seed: int, trace: bool,
    max_trace_events: int,
) -> tuple[SolverProfile, _registry.TelemetryRegistry]:
    with _registry.session(
        trace=trace, max_trace_events=max_trace_events
    ) as reg:
        watch = Stopwatch()
        curve = deck.run(solver=solver, seed=seed)
        wall = watch.elapsed()
    stats = curve.stats
    if stats is None:
        raise TelemetryError(
            "deck run returned no solver stats; cannot build a profile"
        )
    return SolverProfile(solver=solver, wall_seconds=wall, stats=stats), reg


def profile_deck(
    deck: SemsimDeck,
    solver: str = "adaptive",
    seed: int = 0,
    trace: bool = True,
    max_trace_events: int = 1_000_000,
    measure_baseline: bool = False,
) -> tuple[ProfileReport, _registry.TelemetryRegistry]:
    """Profile one deck run; returns the report and the registry whose
    trace buffer backs it (ready for :func:`..exporters.write_trace`).

    With ``measure_baseline=True`` the deck is additionally run with
    the non-adaptive solver (same seed, separate registry) so the
    report carries a measured wall-clock comparison next to the
    analytic rate-evaluation baseline.
    """
    profile, reg = _run_deck(deck, solver, seed, trace, max_trace_events)
    baseline: SolverProfile | None = None
    if measure_baseline and solver != "nonadaptive":
        baseline, _ = _run_deck(
            deck, "nonadaptive", seed, trace=False,
            max_trace_events=max_trace_events,
        )
    stats = profile.stats
    n_junctions = len(deck.junctions)
    baseline_evaluations = 2 * n_junctions * stats.events
    evaluations = stats.sequential_rate_evaluations
    saved = (
        1.0 - evaluations / baseline_evaluations if baseline_evaluations else 0.0
    )
    report = ProfileReport(
        solver=solver,
        n_junctions=n_junctions,
        events=stats.events,
        wall_seconds=profile.wall_seconds,
        phases=phase_timings(reg),
        stats=stats,
        rate_evaluations=evaluations,
        baseline_rate_evaluations=baseline_evaluations,
        saved_fraction=saved,
        dropped_events=reg.dropped_events,
        baseline=baseline,
    )
    return report, reg
