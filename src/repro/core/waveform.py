"""Time-varying (AC) source drive.

Algorithm 1 of the paper explicitly covers "AC signal(s) present": each
change of the input potentials re-tests the junctions in contact with
the inputs.  This module supplies the drive itself — waveform objects
plus a runner that advances the Monte Carlo engine under a
piecewise-constant approximation of the signals:

* time is chopped into ``time_step`` intervals;
* sources are held constant within an interval (the solvers' adaptive
  source handling fires at each boundary);
* events drawn beyond a boundary are *discarded* and the clock moved to
  the boundary — exact for exponential residence times (memorylessness)
  and required because the rates change there.  Frozen intervals
  (blockade under the instantaneous drive) simply pass without events.

The step size trades fidelity for cost exactly like a transient
timestep; a few dozen steps per signal period is typically plenty.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Mapping

from repro.core.engine import MonteCarloEngine, count_events
from repro.errors import SimulationError


class Waveform:
    """A scalar signal ``value(t)``; ``t`` is relative to drive start."""

    def value(self, t: float) -> float:
        raise NotImplementedError


@dataclasses.dataclass(frozen=True)
class Constant(Waveform):
    """A DC level expressed as a waveform (for mixing with AC drives)."""

    level: float

    def value(self, t: float) -> float:
        return self.level


@dataclasses.dataclass(frozen=True)
class Sine(Waveform):
    """``offset + amplitude * sin(2 pi f t + phase)``."""

    amplitude: float
    frequency: float
    offset: float = 0.0
    phase: float = 0.0

    def __post_init__(self) -> None:
        if self.frequency <= 0.0:
            raise SimulationError(f"frequency must be > 0, got {self.frequency}")

    def value(self, t: float) -> float:
        return self.offset + self.amplitude * math.sin(
            2.0 * math.pi * self.frequency * t + self.phase
        )


@dataclasses.dataclass(frozen=True)
class Square(Waveform):
    """Square wave between ``low`` and ``high``."""

    low: float
    high: float
    frequency: float
    duty: float = 0.5
    phase: float = 0.0

    def __post_init__(self) -> None:
        if self.frequency <= 0.0:
            raise SimulationError(f"frequency must be > 0, got {self.frequency}")
        if not 0.0 < self.duty < 1.0:
            raise SimulationError(f"duty must be in (0, 1), got {self.duty}")

    def value(self, t: float) -> float:
        cycle = (t * self.frequency + self.phase / (2.0 * math.pi)) % 1.0
        return self.high if cycle < self.duty else self.low


@dataclasses.dataclass(frozen=True)
class PiecewiseLinear(Waveform):
    """Linear interpolation through ``(time, value)`` points; clamped
    outside the table."""

    times: tuple
    values: tuple

    def __post_init__(self) -> None:
        if len(self.times) != len(self.values) or len(self.times) < 2:
            raise SimulationError("need >= 2 matching (time, value) points")
        if any(b <= a for a, b in zip(self.times, self.times[1:])):
            raise SimulationError("times must be strictly increasing")

    def value(self, t: float) -> float:
        times, values = self.times, self.values
        if t <= times[0]:
            return values[0]
        if t >= times[-1]:
            return values[-1]
        for i in range(len(times) - 1):
            if times[i] <= t <= times[i + 1]:
                frac = (t - times[i]) / (times[i + 1] - times[i])
                return values[i] + frac * (values[i + 1] - values[i])
        raise AssertionError("unreachable")  # pragma: no cover  # repro: allow[REPRO002]


@dataclasses.dataclass
class DriveResult:
    """Outcome of an AC drive segment."""

    events: int
    discarded_boundaries: int
    duration: float


def run_with_waveforms(
    engine: MonteCarloEngine,
    waveforms: Mapping[str, Waveform],
    duration: float,
    time_step: float,
) -> DriveResult:
    """Drive named sources with waveforms for ``duration`` seconds.

    Waveform time starts at 0 when the call begins, regardless of the
    engine's absolute clock.
    """
    if duration <= 0.0 or time_step <= 0.0:
        raise SimulationError("duration and time_step must be > 0")
    if not waveforms:
        raise SimulationError("no waveforms given")
    solver = engine.solver
    start = solver.time
    steps = max(1, int(round(duration / time_step)))
    events = 0
    discarded = 0
    for k in range(steps):
        t_rel = k * time_step
        engine.set_sources(
            {name: wf.value(t_rel) for name, wf in waveforms.items()}
        )
        deadline = start + (k + 1) * time_step
        while solver.time < deadline:
            event = solver.step(deadline=deadline)
            if event is None:
                discarded += 1
                break
            events += 1
    count_events(events)
    return DriveResult(
        events=events, discarded_boundaries=discarded,
        duration=solver.time - start,
    )
