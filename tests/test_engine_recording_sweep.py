"""Tests for the engine loop, recorders and sweep drivers."""

import collections

import numpy as np
import pytest

from repro.circuit import build_set
from repro.core import (
    CurrentRecorder,
    EventLogRecorder,
    MonteCarloEngine,
    NodeVoltageRecorder,
    SimulationConfig,
    sweep_iv,
    symmetric_bias,
)
from repro.errors import SimulationError


@pytest.fixture
def biased_engine():
    circuit = build_set(vs=0.02, vd=-0.02)
    return MonteCarloEngine(
        circuit, SimulationConfig(temperature=5.0, solver="nonadaptive", seed=3)
    )


class TestEngine:
    def test_run_by_jumps(self, biased_engine):
        result = biased_engine.run(max_jumps=500)
        assert result.jumps == 500
        assert result.simulated_time > 0.0

    def test_run_by_simulated_time(self, biased_engine):
        result = biased_engine.run(max_time=1e-9)
        assert biased_engine.solver.time >= 1e-9
        assert result.jumps > 0

    def test_run_requires_a_budget(self, biased_engine):
        with pytest.raises(SimulationError):
            biased_engine.run()

    def test_set_sources_unknown_name(self, biased_engine):
        with pytest.raises(SimulationError):
            biased_engine.set_sources({"ghost": 0.1})

    def test_measure_current_sign_convention(self, biased_engine):
        # positive Vds drives positive current through j1 (source->island)
        current = biased_engine.measure_current([0], jumps=20000)
        assert current > 0.0

    def test_series_orientation_averaging(self, biased_engine):
        i_both = biased_engine.measure_current(
            [0, 1], jumps=20000, orientations=[+1, -1]
        )
        assert i_both > 0.0

    def test_orientation_length_checked(self, biased_engine):
        with pytest.raises(SimulationError):
            biased_engine.measure_current([0, 1], jumps=100, orientations=[1])

    def test_stats_are_snapshots(self, biased_engine):
        r1 = biased_engine.run(max_jumps=100)
        r2 = biased_engine.run(max_jumps=100)
        assert r1.stats.events == 100
        assert r2.stats.events == 200


class TestRecorders:
    def test_current_recorder_matches_flux_average(self, biased_engine):
        recorder = biased_engine.add_recorder(CurrentRecorder(0, interval=50))
        biased_engine.run(max_jumps=5000)
        direct = biased_engine.solver.junction_current(0, 0, 0.0)
        assert recorder.mean_current() == pytest.approx(direct, rel=0.35)

    def test_current_recorder_requires_samples(self):
        recorder = CurrentRecorder(0, interval=10)
        with pytest.raises(SimulationError):
            recorder.mean_current()

    def test_node_voltage_recorder_samples(self, biased_engine):
        recorder = biased_engine.add_recorder(NodeVoltageRecorder(0, interval=10))
        biased_engine.run(max_jumps=200)
        assert len(recorder.samples) == 21  # on_start + 200/10
        assert recorder.times().shape == recorder.voltages().shape

    def test_event_log_bounded(self, biased_engine):
        recorder = biased_engine.add_recorder(EventLogRecorder(max_events=50))
        biased_engine.run(max_jumps=300)
        assert len(recorder.events) == 50
        assert recorder.events[-1].kind == "sequential"

    def test_event_log_keeps_the_latest_events_in_a_bounded_deque(
        self, biased_engine
    ):
        """A full log drops its oldest entry in O(1) (a list's ``pop(0)``
        shifted every entry, per event) and keeps the latest in order."""
        bounded = biased_engine.add_recorder(EventLogRecorder(max_events=50))
        unbounded = biased_engine.add_recorder(EventLogRecorder(max_events=1000))
        biased_engine.run(max_jumps=300)
        assert isinstance(bounded.events, collections.deque)
        assert bounded.events.maxlen == 50
        assert list(bounded.events) == list(unbounded.events)[-50:]

    @pytest.mark.parametrize("max_events", [0, -1])
    def test_event_log_needs_room_for_an_event(self, max_events):
        with pytest.raises(SimulationError, match="max_events"):
            EventLogRecorder(max_events=max_events)

    def test_bad_interval_rejected(self):
        with pytest.raises(SimulationError):
            CurrentRecorder(0, interval=0)
        with pytest.raises(SimulationError):
            NodeVoltageRecorder(0, interval=0)


class TestSweep:
    def test_iv_sweep_antisymmetric_and_blockaded(self):
        circuit = build_set()
        voltages = [-0.04, -0.005, 0.005, 0.04]
        curve = sweep_iv(
            circuit, voltages,
            SimulationConfig(temperature=5.0, solver="nonadaptive", seed=9),
            jumps_per_point=4000,
        )
        # blockade: inner points carry orders of magnitude less current
        assert abs(curve.currents[1]) < 0.02 * abs(curve.currents[0])
        assert abs(curve.currents[2]) < 0.02 * abs(curve.currents[3])
        # antisymmetric-ish
        assert curve.currents[0] == pytest.approx(-curve.currents[3], rel=0.3)

    def test_symmetric_bias_setter(self):
        setter = symmetric_bias()
        assert setter(0.02) == {"vs": 0.01, "vd": -0.01}

    def test_sweep_labels_and_shapes(self):
        circuit = build_set()
        curve = sweep_iv(
            circuit, [0.04],
            SimulationConfig(temperature=5.0, solver="nonadaptive", seed=1),
            jumps_per_point=500, label="test",
        )
        assert curve.label == "test"
        assert curve.voltages.shape == curve.currents.shape == (1,)
