"""Integration tests: the telemetry layer observing real simulations.

The registry's ``solver.events`` counter must agree with the solver's
own work counters (``SolverStats``) while being touched once per run,
never per event, and — the zero-cost contract's other half — observing
a run must never change its physics.
"""

from pathlib import Path

import numpy as np
import pytest

from repro.core import MonteCarloEngine
from repro.netlist import parse_semsim
from repro.telemetry import profile_deck
from repro.telemetry import registry as telemetry
from repro.telemetry.registry import Counter

SET_SWEEP = Path(__file__).parent.parent / "examples" / "decks" / "set_sweep.deck"

SMALL_DECK = """
junc 1 1 3 1e-6 1e-18
junc 2 2 3 1e-6 1e-18
cap 4 3 3e-18
vdc 1 0.02
vdc 2 -0.02
vdc 4 0.0
temp 5
record 1 2 1
jumps 1000
sweep 1 0.02 0.02
symm 2
"""


@pytest.fixture(autouse=True)
def _telemetry_disabled():
    telemetry.disable()
    yield
    telemetry.disable()


class TestAdaptiveTrace:
    """Registry counters and spans versus ``SolverStats`` on the
    paper's example SET."""

    @pytest.fixture(scope="class")
    def traced_run(self):
        deck = parse_semsim(SET_SWEEP.read_text())
        circuit = deck.build_circuit()
        with telemetry.session() as reg:
            engine = MonteCarloEngine(circuit, deck.config(seed=11))
            # enough events to cross the periodic full refresh (1000)
            engine.run(max_jumps=1500)
            # a stimulus change between two runs
            vext = engine.solver.vext.copy()
            vext[1] += 0.004
            engine.solver.set_external_voltages(vext)
            engine.run(max_jumps=300)
            stats = engine.solver.stats
        return reg, stats

    def test_every_event_is_recorded(self, traced_run):
        reg, stats = traced_run
        assert stats.events == 1800
        assert reg.counter("solver.events").value == stats.events

    def test_engine_spans_present(self, traced_run):
        reg, _ = traced_run
        names = {e.name for e in reg.events if e.phase == "X"}
        assert {"engine.prepare", "engine.run"} <= names
        # spans only: nothing is recorded per tunnel event
        assert all(e.phase == "X" for e in reg.events)
        assert len(reg.events) < 10


class TestCountedOncePerRun:
    """The registry is touched once per engine run, not per event."""

    @pytest.fixture
    def adds(self, monkeypatch):
        names = []
        original = Counter.add

        def counting_add(counter, amount=1):
            names.append(counter.name)
            original(counter, amount)

        monkeypatch.setattr(Counter, "add", counting_add)
        return names

    def test_engine_run_adds_one_counter_increment(self, adds):
        deck = parse_semsim(SET_SWEEP.read_text())
        engine = MonteCarloEngine(deck.build_circuit(), deck.config(seed=5))
        with telemetry.session(trace=False) as reg:
            engine.run(max_jumps=10_000)
        assert adds == ["solver.events"]
        assert reg.counter("solver.events").value == 10_000

    def test_waveform_drive_adds_its_events_once(self, adds):
        from repro.circuit import build_set
        from repro.core import SimulationConfig, Square, run_with_waveforms

        engine = MonteCarloEngine(
            build_set(vs=0.005, vd=-0.005),
            SimulationConfig(temperature=1.0, seed=4),
        )
        with telemetry.session(trace=False) as reg:
            result = run_with_waveforms(
                engine, {"vg": Square(low=0.0, high=0.03, frequency=1e8)},
                duration=2e-8, time_step=1e-9,
            )
        assert result.events > 0
        assert adds == ["solver.events"]
        assert reg.counter("solver.events").value == result.events


class TestObservationChangesNothing:
    """Tracing a run must not perturb the simulated physics."""

    def _run(self, traced: bool):
        deck = parse_semsim(SMALL_DECK)
        circuit = deck.build_circuit()
        engine = MonteCarloEngine(circuit, deck.config(seed=7))
        if traced:
            with telemetry.session():
                engine.run(max_jumps=800)
        else:
            engine.run(max_jumps=800)
        solver = engine.solver
        return solver.time, solver.flux.copy(), solver.occupation.copy()

    def test_same_trajectory_with_and_without_telemetry(self):
        time_off, flux_off, occ_off = self._run(traced=False)
        time_on, flux_on, occ_on = self._run(traced=True)
        assert time_on == time_off
        assert np.array_equal(flux_on, flux_off)
        assert np.array_equal(occ_on, occ_off)


class TestDeckRun:
    def test_sweep_trace_and_stats(self):
        deck = parse_semsim(SMALL_DECK)
        with telemetry.session() as reg:
            curve = deck.run(solver="adaptive", seed=1)
        assert curve.stats is not None
        assert curve.stats.events > 0
        span_names = [e.name for e in reg.events if e.phase == "X"]
        assert "deck.build" in span_names
        assert "deck.run" in span_names
        assert span_names.count("sweep.point") == len(curve.voltages)

    def test_stats_attached_even_without_telemetry(self):
        deck = parse_semsim(SMALL_DECK)
        curve = deck.run(solver="adaptive", seed=1)
        assert curve.stats is not None
        assert curve.stats.events > 0


class TestProfileDeck:
    def test_report_consistency(self):
        deck = parse_semsim(SMALL_DECK)
        report, reg = profile_deck(deck, seed=2)
        assert telemetry.get_registry() is None  # session restored
        assert report.solver == "adaptive"
        assert report.n_junctions == 2
        assert report.events == report.stats.events > 0
        assert report.baseline_rate_evaluations == 2 * 2 * report.events
        assert report.saved_fraction == pytest.approx(
            1.0 - report.rate_evaluations / report.baseline_rate_evaluations
        )
        assert reg.counter("solver.events").value == report.events
        text = report.format()
        assert "phase wall time" in text
        assert "rate evaluations (sequential)" in text
        assert "work saved" in text

    def test_measured_baseline(self):
        deck = parse_semsim(SMALL_DECK)
        report, _ = profile_deck(deck, seed=2, measure_baseline=True)
        assert report.baseline is not None
        assert report.baseline.solver == "nonadaptive"
        # the non-adaptive solver really does 2 x junctions evals/event
        baseline_stats = report.baseline.stats
        assert (
            baseline_stats.sequential_rate_evaluations
            >= 2 * 2 * baseline_stats.events
        )
        assert "measured baseline" in report.format()
