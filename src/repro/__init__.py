"""SEMSIM reproduction: adaptive Monte Carlo simulation of
single-electron devices.

Reimplementation of *Adaptive Simulation for Single-Electron Devices*
(Allec, Knobel, Shang - DATE 2008).  The package provides:

* a Monte Carlo simulator for single-electron circuits with an
  **adaptive** rate-update algorithm (the paper's contribution) and the
  conventional non-adaptive baseline;
* orthodox-theory sequential tunneling, second-order inelastic
  cotunneling, and superconducting quasi-particle / Cooper-pair
  tunneling (JQP, DJQP and singularity-matching physics);
* a master-equation reference solver, a SPICE-style analytical
  baseline, a SEMSIM input-file parser, and an nSET/pSET logic
  synthesis front end with the paper's 15 benchmark circuits.

Quick start::

    from repro import build_set, MonteCarloEngine, SimulationConfig

    circuit = build_set(vs=+0.01, vd=-0.01, vg=0.0)
    engine = MonteCarloEngine(circuit, SimulationConfig(temperature=5.0))
    current = engine.measure_current([0], jumps=20000)
"""

from __future__ import annotations

from repro.circuit import (
    ChargeState,
    Circuit,
    CircuitBuilder,
    Electrostatics,
    Superconductor,
    build_junction_array,
    build_set,
)
from repro.core import (
    CurrentRecorder,
    EventKind,
    MonteCarloEngine,
    NodeVoltageRecorder,
    SimulationConfig,
    sweep_iv,
    sweep_map,
    sweep_master_iv,
    symmetric_bias,
)
from repro.errors import (
    CircuitError,
    ConvergenceError,
    FrozenCircuitError,
    LintError,
    NetlistError,
    PhysicsError,
    RecoveryError,
    SemsimError,
    SimulationError,
)
from repro.parallel import EnsembleIV, ensemble_iv
from repro.recovery import ExecutionPolicy

__version__ = "1.0.0"

__all__ = [
    "ChargeState",
    "Circuit",
    "CircuitBuilder",
    "CircuitError",
    "ConvergenceError",
    "CurrentRecorder",
    "Electrostatics",
    "EnsembleIV",
    "EventKind",
    "ExecutionPolicy",
    "FrozenCircuitError",
    "LintError",
    "MonteCarloEngine",
    "NetlistError",
    "NodeVoltageRecorder",
    "PhysicsError",
    "RecoveryError",
    "SemsimError",
    "SimulationConfig",
    "SimulationError",
    "Superconductor",
    "build_junction_array",
    "build_set",
    "ensemble_iv",
    "sweep_iv",
    "sweep_map",
    "sweep_master_iv",
    "symmetric_bias",
    "__version__",
]
