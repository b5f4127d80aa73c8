"""Monte Carlo core: solvers, engine, recording, sweeps."""

from __future__ import annotations

from repro.core.adaptive import AdaptiveSolver
from repro.core.base import BaseSolver, SolverStats
from repro.core.config import SimulationConfig
from repro.core.engine import MonteCarloEngine, RunResult
from repro.core.event_solver import choose_event, draw_time
from repro.core.events import EventKind, TunnelEvent
from repro.core.nonadaptive import NonAdaptiveSolver
from repro.core.recording import (
    CurrentRecorder,
    EventLogRecorder,
    IntervalRecorder,
    NodeVoltageRecorder,
    Recorder,
)
from repro.core.sweep import (
    CurrentMap,
    IVCurve,
    sweep_iv,
    sweep_map,
    sweep_master_iv,
    symmetric_bias,
)
from repro.core.waveform import (
    Constant,
    DriveResult,
    PiecewiseLinear,
    Sine,
    Square,
    Waveform,
    run_with_waveforms,
)

__all__ = [
    "AdaptiveSolver",
    "BaseSolver",
    "Constant",
    "CurrentMap",
    "DriveResult",
    "PiecewiseLinear",
    "Sine",
    "Square",
    "Waveform",
    "run_with_waveforms",
    "CurrentRecorder",
    "EventKind",
    "EventLogRecorder",
    "IntervalRecorder",
    "IVCurve",
    "MonteCarloEngine",
    "NodeVoltageRecorder",
    "NonAdaptiveSolver",
    "Recorder",
    "RunResult",
    "SimulationConfig",
    "SolverStats",
    "TunnelEvent",
    "choose_event",
    "draw_time",
    "sweep_iv",
    "sweep_map",
    "sweep_master_iv",
    "symmetric_bias",
]
