"""Observation of running simulations.

Recorders subscribe to the engine and sample the solver after events.
They deliberately read only public solver state (time, flux,
potentials), so custom recorders can be written by users without
touching solver internals.

An :class:`IntervalRecorder` samples only every ``interval`` events, so
the engine runs the events in between as one batch and calls
:meth:`IntervalRecorder.advance` once per batch.  Any other recorder
sees every event through :meth:`Recorder.on_event`, and the engine runs
one event at a time while it is attached.
"""

from __future__ import annotations

import collections
import dataclasses

import numpy as np

from repro.constants import E_CHARGE
from repro.core.base import BaseSolver
from repro.core.events import TunnelEvent
from repro.errors import SimulationError


class Recorder:
    """Base class; ``on_event`` fires after every realised tunnel event."""

    def on_start(self, solver: BaseSolver) -> None:
        """Called once when the engine starts (or resumes) a run."""

    def on_event(self, solver: BaseSolver, event: TunnelEvent) -> None:
        raise NotImplementedError


class IntervalRecorder(Recorder):
    """A recorder that samples the solver every ``interval`` events.

    It reads no event, so the engine hands it batches: a batch never
    runs past the recorder's next sample, and :meth:`advance` samples
    at the batch's end when that end is the ``interval``-th event.  The
    event count carries across runs.
    """

    def __init__(self, interval: int):
        if interval < 1:
            raise SimulationError(f"interval must be >= 1, got {interval}")
        self.interval = interval
        self._count = 0

    def events_to_sample(self) -> int:
        """Events from now up to and including the next sample's."""
        return self.interval - self._count % self.interval

    def advance(self, solver: BaseSolver, events: int) -> None:
        """Count ``events`` more realised events (at most
        :meth:`events_to_sample`); sample if the last was a sample's."""
        self._count += events
        if events and not self._count % self.interval:
            self.sample(solver)

    def on_event(self, solver: BaseSolver, event: TunnelEvent) -> None:
        self.advance(solver, 1)

    def sample(self, solver: BaseSolver) -> None:
        """Read the solver at a sample event."""
        raise NotImplementedError


@dataclasses.dataclass
class CurrentSample:
    """Windowed current estimate ending at ``time``."""

    time: float
    current: float


class CurrentRecorder(IntervalRecorder):
    """Windowed-average current through a junction.

    Every ``interval`` events the net electron flux accumulated since
    the previous sample is converted to a conventional current
    (positive in the junction's ``node_a -> node_b`` direction).
    """

    def __init__(self, junction: int, interval: int = 100):
        super().__init__(interval)
        self.junction = junction
        self.samples: list[CurrentSample] = []
        self._last_flux = 0
        self._last_time = 0.0

    def on_start(self, solver: BaseSolver) -> None:
        self._last_flux = int(solver.flux[self.junction])
        self._last_time = solver.time

    def sample(self, solver: BaseSolver) -> None:
        elapsed = solver.time - self._last_time
        if elapsed <= 0.0:
            return
        flux = int(solver.flux[self.junction])
        current = -E_CHARGE * (flux - self._last_flux) / elapsed
        self.samples.append(CurrentSample(solver.time, current))
        self._last_flux = flux
        self._last_time = solver.time

    def mean_current(self) -> float:
        """Time-weighted mean of the recorded samples."""
        if not self.samples:
            raise SimulationError("no current samples recorded yet")
        return float(np.mean([s.current for s in self.samples]))


@dataclasses.dataclass
class VoltageSample:
    time: float
    voltage: float


class NodeVoltageRecorder(IntervalRecorder):
    """Samples an island's potential every ``interval`` events.

    Logic benches use this on gate-output wire nodes to extract
    propagation delays.
    """

    def __init__(self, island: int, interval: int = 1):
        super().__init__(interval)
        self.island = island
        self.samples: list[VoltageSample] = []

    def on_start(self, solver: BaseSolver) -> None:
        self.sample(solver)

    def sample(self, solver: BaseSolver) -> None:
        self.samples.append(
            VoltageSample(solver.time, float(solver.potentials()[self.island]))
        )

    def times(self) -> np.ndarray:
        return np.array([s.time for s in self.samples])

    def voltages(self) -> np.ndarray:
        return np.array([s.voltage for s in self.samples])


@dataclasses.dataclass
class LoggedEvent:
    time: float
    kind: str
    junction: int
    direction: int
    dw: float


class EventLogRecorder(Recorder):
    """Keeps the last ``max_events`` realised events for inspection."""

    def __init__(self, max_events: int = 100000):
        if max_events < 1:
            raise SimulationError(f"max_events must be >= 1, got {max_events}")
        self.max_events = max_events
        # a full deque drops its oldest entry in O(1)
        self.events: collections.deque[LoggedEvent] = collections.deque(
            maxlen=max_events
        )

    def on_event(self, solver: BaseSolver, event: TunnelEvent) -> None:
        self.events.append(
            LoggedEvent(
                solver.time, event.kind.value, event.junction,
                event.direction, event.dw,
            )
        )
