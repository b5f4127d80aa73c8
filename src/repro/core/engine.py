"""The Monte Carlo engine orchestrating solvers, recorders and budgets.

This is the public entry point for simulation (Fig. 3's outer loop):
it takes the circuit's shared electrostatics, prepares the rate model,
runs the chosen solver until a jump or simulated-time budget is
exhausted, and exposes current measurement helpers.
"""

from __future__ import annotations

import dataclasses
import math
import sys
from typing import Mapping, Sequence

import numpy as np

from repro.circuit.circuit import Circuit
from repro.constants import E_CHARGE
from repro.core.adaptive import AdaptiveSolver
from repro.core.base import BaseSolver, SolverStats
from repro.core.config import SimulationConfig
from repro.core.nonadaptive import NonAdaptiveSolver
from repro.core.recording import IntervalRecorder, Recorder
from repro.errors import SimulationError
from repro.physics.rates import TunnelingModel
from repro.telemetry import registry as _telemetry
from repro.telemetry.clock import Stopwatch


def count_events(events: int) -> None:
    """Add a run's realised events to the active registry's
    ``solver.events`` counter (a no-op while telemetry is off)."""
    reg = _telemetry.ACTIVE
    if reg is not None:
        reg.counter("solver.events").add(events)


@dataclasses.dataclass
class RunResult:
    """Summary of one :meth:`MonteCarloEngine.run` call."""

    jumps: int
    simulated_time: float
    wall_time: float
    stats: SolverStats
    occupation: np.ndarray


class MonteCarloEngine:
    """Prepares a circuit for Monte Carlo simulation and runs it.

    Parameters
    ----------
    circuit:
        The frozen circuit.
    config:
        Simulation knobs; defaults to :class:`SimulationConfig`'s
        defaults (adaptive solver at 4.2 K).
    initial_occupation:
        Optional starting electron occupation per island.
    """

    def __init__(
        self,
        circuit: Circuit,
        config: SimulationConfig | None = None,
        initial_occupation: np.ndarray | None = None,
    ):
        self.circuit = circuit
        self.config = config if config is not None else SimulationConfig()
        with _telemetry.span(
            "engine.prepare", category="engine",
            junctions=circuit.n_junctions, solver=self.config.solver,
        ):
            self.electrostatics, self.junction_table = (
                circuit.prepared_electrostatics()
            )
            self.model = TunnelingModel(
                circuit,
                self.electrostatics,
                self.junction_table,
                temperature=self.config.temperature,
                include_cotunneling=self.config.include_cotunneling,
                include_cooper_pairs=self.config.include_cooper_pairs,
                cooper_linewidth=self.config.cooper_linewidth,
                cotunneling_energy_floor=self.config.cotunneling_energy_floor,
                qp_table_points=self.config.qp_table_points,
            )
            # accepts an int or a spawned SeedSequence; default_rng(s)
            # and default_rng(SeedSequence(s)) are bit-identical
            self.rng = np.random.default_rng(self.config.seed)
            solver_cls = (
                AdaptiveSolver
                if self.config.solver == "adaptive"
                else NonAdaptiveSolver
            )
            self.solver: BaseSolver = solver_cls(
                circuit,
                self.electrostatics,
                self.junction_table,
                self.model,
                self.config,
                self.rng,
                initial_occupation,
            )
        self.recorders: list[Recorder] = []

    # ------------------------------------------------------------------
    def event_hash(self) -> str | None:
        """Digest of the realised event stream so far.

        ``None`` unless the run was configured with
        ``SimulationConfig(event_hash=True)`` — see the runtime
        determinism sanitizer (:mod:`repro.dsan.runtime`).
        """
        return self.solver.event_stream_hash()

    def add_recorder(self, recorder: Recorder) -> Recorder:
        """Attach a recorder; returns it for convenient chaining."""
        self.recorders.append(recorder)
        return recorder

    def set_sources(self, voltages: Mapping[str, float]) -> None:
        """Retarget named DC sources mid-run (sweeps, logic stimuli)."""
        index_of = {s.name: k + 1 for k, s in enumerate(self.circuit.sources)}
        unknown = set(voltages) - set(index_of)
        if unknown:
            raise SimulationError(f"unknown source(s): {sorted(unknown)}")
        vext = self.solver.vext.copy()
        for name, value in voltages.items():
            vext[index_of[name]] = value
        self.solver.set_external_voltages(vext)

    def run(
        self, max_jumps: int | None = None, max_time: float | None = None
    ) -> RunResult:
        """Simulate until ``max_jumps`` events or ``max_time`` seconds of
        *simulated* time have elapsed (whichever comes first).

        Mirrors the paper's termination criterion ("jumps simulated >
        desired amount? or time simulated > desired amount?"): both
        are tested before each event, so the last event may overshoot
        ``max_time``.

        The solver realises the events in batches
        (:meth:`BaseSolver.run_batch`).  A batch ends at the next event
        an :class:`IntervalRecorder` samples; any other recorder sees
        every event, so while one is attached the batches are single
        :meth:`BaseSolver.step` calls.
        """
        if max_jumps is None and max_time is None:
            raise SimulationError("specify max_jumps and/or max_time")
        if max_jumps is not None and max_jumps < 0:
            raise SimulationError(f"max_jumps must be >= 0, got {max_jumps}")
        deadline = self.solver.time + max_time if max_time is not None else None

        for recorder in self.recorders:
            recorder.on_start(self.solver)

        solver = self.solver
        sampled = [r for r in self.recorders if isinstance(r, IntervalRecorder)]
        per_event = len(sampled) < len(self.recorders)
        budget = sys.maxsize if max_jumps is None else max_jumps
        start_jumps = solver.stats.events
        jumps = 0
        try:
            with _telemetry.span(
                "engine.run", category="engine",
                max_jumps=max_jumps, max_time=max_time,
            ) as run_span:
                watch = Stopwatch()
                while jumps < budget:
                    if deadline is not None and solver.time >= deadline:
                        break
                    if per_event:
                        event = solver.step()
                        jumps += 1
                        for recorder in self.recorders:
                            recorder.on_event(solver, event)
                        continue
                    batch = budget - jumps
                    for recorder in sampled:
                        batch = min(batch, recorder.events_to_sample())
                    before = solver.stats.events
                    try:
                        solver.run_batch(batch, deadline)
                    finally:
                        # recorders count the events of a batch that
                        # raised (a frozen circuit) too
                        done = solver.stats.events - before
                        jumps += done
                        for recorder in sampled:
                            recorder.advance(solver, done)
                wall = watch.elapsed()
                run_span.set("jumps", jumps)
        finally:
            # once per run, never per event; counted also when a step
            # raises (a frozen circuit) after events were realised
            count_events(solver.stats.events - start_jumps)

        return RunResult(
            jumps=solver.stats.events - start_jumps,
            simulated_time=solver.time,
            wall_time=wall,
            stats=dataclasses.replace(solver.stats),
            occupation=solver.occupation.copy(),
        )

    # ------------------------------------------------------------------
    def measure_current(
        self,
        junctions: Sequence[int] | int,
        jumps: int,
        warmup_fraction: float = 0.2,
        orientations: Sequence[int] | None = None,
    ) -> float:
        """Mean current through one or more junctions (A).

        Runs ``warmup_fraction * jumps`` events to relax the charge
        state, then measures the net electron flux over the remaining
        events.  Multiple junctions are averaged after applying
        ``orientations`` (each +-1), which lets series junctions with
        opposite ``node_a -> node_b`` senses reinforce instead of
        cancel — the paper's ``record 1 2`` idiom.
        """
        if isinstance(junctions, int):
            junctions = [junctions]
        if not junctions:
            raise SimulationError("measure_current needs at least one junction")
        if orientations is None:
            orientations = [1] * len(junctions)
        if len(orientations) != len(junctions):
            raise SimulationError("orientations must match junctions in length")
        if not 0.0 <= warmup_fraction < 1.0:
            raise SimulationError(
                f"warmup_fraction must be in [0, 1), got {warmup_fraction}"
            )
        warmup = int(jumps * warmup_fraction)
        if warmup_fraction > 0.0 and warmup == 0:
            # int(jumps * fraction) == 0 would *silently* skip the
            # relaxation run and measure an unrelaxed charge state
            raise SimulationError(
                f"jumps={jumps} is too small to honor "
                f"warmup_fraction={warmup_fraction:g}: the warm-up truncates "
                f"to zero events; use jumps >= "
                f"{math.ceil(1.0 / warmup_fraction)} or pass "
                "warmup_fraction=0 to measure without relaxation"
            )
        with _telemetry.span(
            "engine.measure_current", category="engine",
            jumps=jumps, warmup=warmup,
        ):
            if warmup:
                self.run(max_jumps=warmup)
            flux0 = self.solver.flux[list(junctions)].copy()
            self.solver.reset_window()
            self.run(max_jumps=jumps - warmup)
        elapsed = self.solver.window_elapsed
        if elapsed <= 0.0:
            raise SimulationError("no simulated time elapsed during measurement")
        flux1 = self.solver.flux[list(junctions)]
        currents = -E_CHARGE * (flux1 - flux0) * np.asarray(orientations) / elapsed
        return float(np.mean(currents))
