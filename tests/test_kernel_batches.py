"""The adaptive kernel's event batches against one event at a time.

``MonteCarloEngine.run`` has the solver realise its events in batches;
on the kernel path one ``repro_run`` call runs many events and does the
clocks, the counters and the event-stream digest records in C.  A
recorder that is not an ``IntervalRecorder`` forces one-event batches
(single ``step()`` calls), so attaching one gives the reference run of
the same seed.  Both, and the Python path's run of the same seed, must
realise the same events and leave the same clocks, state, counters and
recorder samples, bit for bit.  The C ``float.hex`` of the digest
records is tested against Python's.
"""

import dataclasses
import struct

import numpy as np
import pytest

from repro.circuit import build_set
from repro.core import (
    CurrentRecorder,
    MonteCarloEngine,
    NodeVoltageRecorder,
    Recorder,
    SimulationConfig,
    native,
    symmetric_bias,
)
from repro.errors import FrozenCircuitError
from repro.logic import build_benchmark, find_step_stimulus


class EveryEvent(Recorder):
    """Sees every event, so the engine runs one event per batch."""

    def __init__(self):
        self.events = 0

    def on_event(self, solver, event):
        self.events += 1


def kernel_solver(engine):
    solver = engine.solver
    assert solver._kernel is not None, native.load().describe()
    return solver


def count_runs(solver) -> list[int]:
    """Record the events each ``repro_run`` call of ``solver`` realises;
    ``.statuses`` says why each call stopped."""
    counts = Runs()
    run = solver._native_run

    def counted(*args):
        counts.append(run(*args))
        counts.statuses.append(solver._kernel.status)
        return counts[-1]

    solver._native_run = counted
    return counts


class Runs(list):
    """Events per ``repro_run`` call, with each call's stop status."""

    def __init__(self):
        super().__init__()
        self.statuses: list[int] = []


def engines(monkeypatch, circuit, config, occupation=None, recorders=()):
    """The batched engine, the one-event engine and a batched engine on
    the Python path, each with its own copies of ``recorders``
    (factories), plus the batched solver's ``repro_run`` event
    counts."""
    built = []
    for one_event, python in ((False, False), (True, False), (False, True)):
        with monkeypatch.context() as patch:
            if python:
                patch.setattr(
                    native, "load",
                    lambda: native.Native(None, None, None, "disabled"),
                )
            engine = MonteCarloEngine(
                circuit, config, initial_occupation=occupation
            )
        if python:
            assert engine.solver._kernel is None
        else:
            kernel_solver(engine)
        for make in recorders:
            engine.add_recorder(make())
        if one_event:
            engine.add_recorder(EveryEvent())
        built.append(engine)
    return (*built, count_runs(built[0].solver))


def samples(recorder) -> list[tuple[str, ...]]:
    """A recorder's samples, every float as ``float.hex``."""
    return [
        tuple(value.hex() for value in dataclasses.astuple(sample))
        for sample in recorder.samples
    ]


def assert_same(batched, single, python):
    """The three engines agree, bit for bit."""
    for other in (single, python):
        assert_pair(batched, other)


def assert_pair(batched, single):
    assert batched.event_hash() == single.event_hash() is not None
    f, r = batched.solver, single.solver
    assert f.time.hex() == r.time.hex()
    assert f.window_elapsed.hex() == r.window_elapsed.hex()
    assert f._time_compensation.hex() == r._time_compensation.hex()
    assert f._window_compensation.hex() == r._window_compensation.hex()
    assert f._events_since_refresh == r._events_since_refresh
    assert f.stats == r.stats
    assert np.array_equal(f.occupation, r.occupation)
    assert np.array_equal(f.flux, r.flux)
    for name in ("_v", "_dw_fw", "_dw_bw", "_seq_fw", "_seq_bw", "_b0", "_limit"):
        assert getattr(f, name).tobytes() == getattr(r, name).tobytes(), name
    assert f._tree.nodes.tobytes() == r._tree.nodes.tobytes()
    interval = [rec for rec in single.recorders if not isinstance(rec, EveryEvent)]
    assert len(batched.recorders) == len(interval)
    for a, b in zip(batched.recorders, interval):
        assert samples(a) == samples(b)
    counters = [rec for rec in single.recorders if isinstance(rec, EveryEvent)]
    assert all(counter.events == r.stats.events for counter in counters)


@pytest.mark.parametrize("refresh", [1000, 7])
def test_set_sweep_batches_match_single_events(monkeypatch, refresh):
    """The set-iv SET across the blockade and into conduction, with a
    measurement window per bias; also with a full refresh every seven
    events."""
    config = SimulationConfig(
        temperature=5.0, seed=21, event_hash=True, full_refresh_interval=refresh,
    )
    batched, single, python, runs = engines(monkeypatch, build_set(), config)
    setter = symmetric_bias()
    for volts in (-0.04, -0.012, 0.0, 0.006, 0.025, 0.04):
        currents = []
        for engine in (batched, single, python):
            engine.set_sources(setter(volts))
            currents.append(engine.measure_current([0], 3000))
        assert currents[0] == currents[1] == currents[2]
        assert_same(batched, single, python)
    assert max(runs) > 1 and sum(runs) == batched.solver.stats.events == 18000
    assert batched.solver.stats.full_refreshes > 18000 // refresh


@pytest.mark.parametrize("threshold", [None, 0.0], ids=["default", "wide"])
def test_74ls280_recorders_bound_the_batches(monkeypatch, threshold):
    """74LS280's inputs toggled under node-voltage recorders sampling
    every 1, 5 and 7 events and a current recorder every 11: each batch
    ends at the next sample, and the samples are today's.  At lambda = 0
    most events flood their component, so most calls stop for a wide
    recompute."""
    mapped = build_benchmark("74LS280")
    stimulus = find_step_stimulus(mapped.netlist, 0)
    vectors = (
        mapped.input_voltages(stimulus.after),
        mapped.input_voltages(stimulus.before),
    )
    config = SimulationConfig(
        temperature=mapped.params.temperature, seed=8, event_hash=True,
    )
    if threshold is not None:
        config = config.replace(adaptive_threshold=threshold)
    island = mapped.island_of(stimulus.toggled_outputs[0][0])
    recorders = [
        lambda: NodeVoltageRecorder(island, 1),
        lambda: NodeVoltageRecorder(island, 5),
        lambda: NodeVoltageRecorder(island, 7),
        lambda: CurrentRecorder(0, 11),
    ]
    batched, single, python, runs = engines(
        monkeypatch, mapped.circuit, config, mapped.initial_occupation(stimulus.before),
        recorders,
    )
    events = 150 if threshold == 0.0 else 600
    for k in range(4):
        for engine in (batched, single, python):
            engine.set_sources(vectors[k % 2])
            engine.run(max_jumps=events)
        assert_same(batched, single, python)
    assert sum(runs) == 4 * events
    # the interval-1 recorder makes every batch one event
    assert max(runs) == 1
    for engine in (batched, single, python):
        assert len(engine.recorders[0].samples) == 4 + 4 * events
        assert len(engine.recorders[2].samples) == 4 + 4 * events // 7
    if threshold == 0.0:
        assert runs.statuses.count(native.STEP_RECOMPUTE) > events
    # without it, batches run to the next of the 5- and 7-event samples
    for engine in (batched, single, python):
        engine.recorders.pop(0)
    runs.clear()
    runs.statuses.clear()
    for engine in (batched, single, python):
        engine.run(max_jumps=events)
    assert_same(batched, single, python)
    assert sum(runs) == events
    if threshold is None:
        assert max(runs) > 1


def test_run_by_simulated_time_matches_single_events(monkeypatch):
    """``run(max_time=...)`` tests the stop time before every draw, so
    the last event overshoots it, in a batch as one event at a time."""
    config = SimulationConfig(temperature=5.0, seed=4, event_hash=True)
    batched, single, python, runs = engines(
        monkeypatch, build_set(vs=0.03, vd=-0.03), config,
        recorders=[lambda: NodeVoltageRecorder(0, 9)],
    )
    for span in (1e-9, 3.7e-9, 2e-10, 5e-9):
        results = [
            engine.run(max_time=span) for engine in (batched, single, python)
        ]
        assert results[0].jumps == results[1].jumps == results[2].jumps > 0
        assert (
            results[0].simulated_time == results[1].simulated_time
            == results[2].simulated_time
        )
        assert_same(batched, single, python)
    # the budget and the stop time together: whichever comes first
    for engine in (batched, single, python):
        engine.run(max_jumps=40, max_time=1e-6)
        engine.run(max_jumps=10 ** 6, max_time=1e-9)
    assert_same(batched, single, python)
    assert max(runs) > 1


def test_frozen_start_matches_single_events(monkeypatch):
    """At T = 0 inside the blockade the first draw is frozen and raises
    with no event; once biased, the island charges up and freezes again,
    and the events realised before that raise are counted, recorded and
    hashed alike."""
    config = SimulationConfig(temperature=0.0, seed=1, event_hash=True)
    batched, single, python, runs = engines(
        monkeypatch, build_set(vs=0.0, vd=0.0), config,
        recorders=[lambda: NodeVoltageRecorder(0, 3)],
    )
    for engine in (batched, single, python):
        with pytest.raises(FrozenCircuitError):
            engine.run(max_jumps=100)
        assert engine.solver.stats.events == 0
    assert_same(batched, single, python)
    for engine in (batched, single, python):
        engine.set_sources({"vs": 1.0, "vd": 1.0})
        with pytest.raises(FrozenCircuitError):
            engine.run(max_jumps=1000)
    assert 0 < batched.solver.stats.events < 1000
    assert sum(runs) == batched.solver.stats.events
    assert_same(batched, single, python)
    assert batched.recorders[0]._count == batched.solver.stats.events


def test_one_step_is_a_run_of_one_event():
    """``AdaptiveSolver.step`` realises its event through ``repro_run``
    with a budget of one."""
    engine = MonteCarloEngine(
        build_set(vs=0.03, vd=-0.03),
        SimulationConfig(temperature=5.0, seed=2, event_hash=True),
    )
    runs = count_runs(kernel_solver(engine))
    for _ in range(50):
        engine.solver.step()
    assert runs == [1] * 50


def kernel_hex(values) -> list[str]:
    """``float.hex`` of ``values`` as the kernel writes it."""
    values = np.ascontiguousarray(values, dtype=float)
    out = np.zeros(32 * len(values), dtype=np.uint8)
    length = native.load().hex(values.ctypes.data, len(values), out.ctypes.data)
    return bytes(out[:length]).decode("ascii").split("\n")[:-1]


def test_kernel_hex_matches_float_hex():
    """The digest records' ``float.hex`` in C, on 200k random positive
    bit patterns (one in four subnormal), the edges of the normal and
    subnormal ranges, zero, ``inf`` and ``nan``."""
    assert native.load().hex is not None, native.load().describe()
    rng = np.random.default_rng(17)
    bits = rng.integers(1, 0x7FF0000000000000, size=200_000, dtype=np.uint64)
    bits[::4] &= np.uint64((1 << 52) - 1)  # subnormals
    bits[bits == 0] = 1
    values = bits.view(np.float64)
    assert (values > 0).all() and np.isfinite(values).all()
    edges = [
        5e-324, 2.2250738585072009e-308, 2.2250738585072014e-308,
        1.7976931348623157e308, 1.0, 0.5, 2.0, 1e-300, 3.0517578125e-05 / 7,
        0.0, -0.0, -2.5, float("inf"), float("-inf"), float("nan"),
    ]
    edges += [struct.unpack("<d", struct.pack("<Q", b))[0]
              for b in (0x000FFFFFFFFFFFFF, 0x0010000000000001, 0x7FEFFFFFFFFFFFFF)]
    for batch in (values.tolist(), edges):
        assert kernel_hex(batch) == [float(x).hex() for x in batch]
