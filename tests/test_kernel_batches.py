"""The adaptive kernel's event batches against one event at a time.

``MonteCarloEngine.run`` has the solver realise its events in batches;
on the kernel path one ``repro_run`` call runs many events and does the
clocks, the counters and the event-stream digest records in C.  A
recorder that is not an ``IntervalRecorder`` forces one-event batches
(single ``step()`` calls), so attaching one gives the reference run of
the same seed.  Both, and the Python path's run of the same seed, must
realise the same events and leave the same clocks, state, counters and
recorder samples, bit for bit; on superconducting circuits too, with
and without Cooper pairs.  The kernel's helpers are tested on their
own: the C ``float.hex`` of the digest records against Python's, its
pairwise sum against ``numpy.sum`` and its quasi-particle table lookup
against ``QuasiparticleRateTable``.
"""

import ctypes
import dataclasses
import math
import struct

import numpy as np
import pytest

from repro.circuit import CircuitBuilder, Superconductor, build_set
from repro.constants import K_B, MEV
from repro.core import (
    CurrentRecorder,
    MonteCarloEngine,
    NodeVoltageRecorder,
    Recorder,
    SimulationConfig,
    Sine,
    native,
    run_with_waveforms,
    symmetric_bias,
)
from repro.errors import FrozenCircuitError
from repro.logic import build_benchmark, find_step_stimulus
from repro.physics import TunnelingModel

#: the superconductor of the Fig. 1c SSET (perfbench's sset-iv)
ALUMINIUM = Superconductor(delta0=0.2 * MEV, tc=1.2)


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
    if f._tree is None:
        assert r._tree is None
    else:
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


# ----------------------------------------------------------------------
# superconducting circuits
# ----------------------------------------------------------------------
def sset(**sources):
    return build_set(superconductor=ALUMINIUM, **sources)


def reaches_extension(solver) -> bool:
    """Whether some stored free energy lies below its junction's
    quasi-particle table, where the ohmic extension gives the rate."""
    grids = [table._grid[0] for table in solver.model._qp_tables]
    return bool(np.any(np.minimum(solver._dw_fw, solver._dw_bw) < grids))


@pytest.mark.parametrize("refresh", [1000, 7])
def test_sset_sweep_batches_match_single_events(monkeypatch, refresh):
    """The sset-iv SSET with Cooper pairs, drawn without the tree: from
    the ohmic extension below the tables at +-80 mV through the sub-gap
    resonances, with a full refresh every seven events too."""
    config = SimulationConfig(
        temperature=0.05, seed=23, event_hash=True, full_refresh_interval=refresh,
    )
    batched, single, python, runs = engines(monkeypatch, sset(), config)
    assert batched.solver._tree is None and batched.solver._kernel.cooper
    setter = symmetric_bias()
    for volts in (-0.08, 0.08, -0.006, 0.0, 0.003, 0.012):
        currents = []
        for engine in (batched, single, python):
            engine.set_sources(setter(volts))
            currents.append(engine.measure_current([0], 1500))
        assert currents[0] == currents[1] == currents[2]
        assert_same(batched, single, python)
        if abs(volts) == 0.08:
            assert reaches_extension(batched.solver)
    stats = batched.solver.stats
    assert sum(runs) == stats.events == 9000
    assert stats.secondary_rate_evaluations == 4 * 9000
    assert max(runs) > 1 and stats.full_refreshes > 9000 // refresh
    # the sub-gap biases run on Cooper pairs (one event in three)
    kinds = [record.split(":")[0] for record in kernel_records(batched)]
    assert 40 < kinds.count("cooper_pair") < 160


def kernel_records(engine) -> list[str]:
    """The digest records of a 200-event run of ``engine`` through
    ``repro_run``."""
    solver = engine.solver
    records = []
    run = solver._native_run

    def recorded(*args):
        done = run(*args)
        length = solver._kernel.record_len
        records.extend(bytes(solver._records[:length]).decode().splitlines())
        return done

    solver._native_run = recorded
    engine.run(max_jumps=200)
    solver._native_run = run
    return records


def test_sset_without_cooper_pairs_keeps_the_tree(monkeypatch):
    """With Cooper pairs off the SSET draws through the pair tree with
    quasi-particle rates; inside the gap at 0.05 K every rate is zero,
    and the frozen draw raises on all three paths alike."""
    config = SimulationConfig(
        temperature=0.05, seed=6, event_hash=True, include_cooper_pairs=False,
    )
    batched, single, python, runs = engines(monkeypatch, sset(), config)
    assert batched.solver._tree is not None and not batched.solver._kernel.cooper
    setter = symmetric_bias()
    for volts in (0.08, 0.0, -0.08, 0.002, 0.06):
        for engine in (batched, single, python):
            engine.set_sources(setter(volts))
            if abs(volts) < 0.01:
                with pytest.raises(FrozenCircuitError):
                    engine.run(max_jumps=2000)
            else:
                engine.run(max_jumps=2000)
        assert_same(batched, single, python)
        if abs(volts) == 0.08:
            assert reaches_extension(batched.solver)
    assert runs.statuses.count(native.STEP_FROZEN) == 2
    assert batched.solver.stats.secondary_rate_evaluations == 0


def superconducting_array(n_junctions: int):
    """A biased 1-D array of superconducting junctions with gates, whose
    resistances alternate so that the junctions read two tables."""
    builder = CircuitBuilder()
    nodes = ["lead_l", *(f"isl{i}" for i in range(1, n_junctions)), "lead_r"]
    for i in range(n_junctions):
        builder.add_junction(
            f"j{i}", nodes[i], nodes[i + 1], 1e6 if i % 2 else 1.5e6, 1e-18,
        )
    for i in range(1, n_junctions):
        builder.add_capacitor(f"cg{i}", "gate", f"isl{i}", 0.5e-18)
    builder.add_voltage_source("vl", "lead_l", 0.03)
    builder.add_voltage_source("vr", "lead_r", -0.03)
    builder.add_voltage_source("vg", "gate", 0.0)
    builder.set_superconductor(ALUMINIUM)
    return builder.build()


def test_superconducting_array_matches_single_events(monkeypatch):
    """Six junctions: twelve Cooper-pair channels take numpy.sum's
    eight-accumulator block, island-to-island junctions and the
    neighbour walk recompute several junctions per event."""
    config = SimulationConfig(temperature=0.2, seed=3, event_hash=True)
    batched, single, python, runs = engines(
        monkeypatch, superconducting_array(6), config,
        recorders=[lambda: NodeVoltageRecorder(2, 13)],
    )
    tables = batched.solver.model._qp_tables
    assert len({id(table) for table in tables}) == 2
    for k, (vl, vg) in enumerate(((0.03, 0.0), (0.05, 0.004), (0.02, -0.003))):
        for engine in (batched, single, python):
            engine.set_sources({"vl": vl, "vr": -vl, "vg": vg})
            engine.run(max_jumps=1500)
        assert_same(batched, single, python)
    stats = batched.solver.stats
    assert sum(runs) == stats.events == 4500
    assert stats.secondary_rate_evaluations == 12 * 4500
    assert stats.flagged_recalculations > 2 * 4500


def test_sset_under_a_sine_drive_matches_python(monkeypatch):
    """``step(deadline)`` on the SSET: draws beyond a time step are
    discarded, and their Cooper-pair rates still count."""
    config = SimulationConfig(temperature=0.05, seed=12, event_hash=True)
    batched, single, python, runs = engines(monkeypatch, sset(), config)
    drive = {"vs": Sine(amplitude=0.04, frequency=5e7),
             "vd": Sine(amplitude=-0.04, frequency=5e7)}
    results = [
        run_with_waveforms(engine, drive, duration=4e-8, time_step=4e-10)
        for engine in (batched, single, python)
    ]
    assert results[0] == results[1] == results[2]
    assert results[0].events > 100 and results[0].discarded_boundaries > 10
    # the drive steps the solver itself: no recorder sees its events
    assert_pair(batched, python)
    assert single.event_hash() == python.event_hash()
    stats = batched.solver.stats
    draws = stats.events + runs.statuses.count(native.STEP_DEADLINE)
    assert stats.secondary_rate_evaluations == 4 * draws
    assert sum(runs) == stats.events


# ----------------------------------------------------------------------
# the kernel's helpers
# ----------------------------------------------------------------------
def test_kernel_sum_matches_numpy_sum():
    """``repro_sum`` is numpy.sum's pairwise summation on every length
    from 1 to 20,000, over terms of mixed sign and magnitude."""
    library = native.load()
    assert library.sum is not None, library.describe()
    rng = np.random.default_rng(5)
    values = rng.normal(size=20_000) * 10.0 ** rng.uniform(-6.0, 6.0, 20_000)
    address = values.ctypes.data
    mismatches = [
        n for n in range(1, values.size + 1)
        if library.sum(address, n).hex() != float(np.sum(values[:n])).hex()
    ]
    assert not mismatches, mismatches[:10]
    # a plain running sum differs: the test can tell the orders apart
    assert any(
        sum(values[:n].tolist()) != float(np.sum(values[:n]))
        for n in (200, 2000, 20_000)
    )


@pytest.mark.parametrize("temperature", [0.05, 0.52], ids=lambda t: f"T={t}")
def test_kernel_table_lookup_matches_the_table(temperature):
    """``repro_qp_rates`` on the tables a model gives the sset-iv SSET
    equals ``QuasiparticleRateTable._rate`` bit for bit: every grid
    point and its two float neighbours, the span edges, NaN, uniform
    draws over 1.3 times the span and deep in the ohmic extension."""
    engine = MonteCarloEngine(sset(), SimulationConfig(temperature=temperature))
    solver = kernel_solver(engine)
    table = solver.model._qp_tables[0]
    grid, span = table._grid, table.dw_max
    rng = np.random.default_rng(29)
    xs = np.concatenate([
        grid,
        np.nextafter(grid, -np.inf),
        np.nextafter(grid, np.inf),
        [-span, span, grid[0], grid[-1], math.nan],
        rng.uniform(-1.3 * span, 1.3 * span, 20_000),
        -span * 10.0 ** rng.uniform(0.0, 4.0, 5_000),
    ])
    out = np.zeros_like(xs)
    native.load().qp_rates(
        ctypes.addressof(solver._kernel), 0, xs.ctypes.data, xs.size,
        out.ctypes.data,
    )
    expected = [table._rate(x).hex() for x in xs.tolist()]
    got = [x.hex() for x in out.tolist()]
    mismatches = [
        (x, e, g) for x, e, g in zip(xs.tolist(), expected, got) if e != g
    ]
    assert not mismatches, mismatches[:5]
    assert (xs < grid[0]).sum() > 5_000 and math.isnan(out[3 * grid.size + 4])


def test_expm1_is_minus_one_where_the_kernel_uses_libm():
    """At and below ``native.EXPM1_MINUS_ONE`` numpy's expm1 (array and
    scalar) and libm's (``math.expm1``) both give exactly -1."""
    rng = np.random.default_rng(31)
    limit = native.EXPM1_MINUS_ONE
    ys = np.concatenate([
        np.linspace(-1e6, limit, 200_001),
        -(10.0 ** rng.uniform(math.log10(-limit), 6.0, 100_000)),
        [limit, np.nextafter(limit, -np.inf)],
    ])
    assert ys.max() == limit and ys.min() >= -1e6
    assert (np.expm1(ys) == -1.0).all()
    for y in ys[::97].tolist() + [limit]:
        assert float(np.expm1(y)) == math.expm1(y) == -1.0, y


def test_narrow_table_span_stays_on_the_python_path(monkeypatch):
    """Tables spanning a few kT, as in ``TestScalarLookup``, extend with
    expm1 arguments where libm and numpy may round differently: the
    solver keeps the Python path and says why."""
    monkeypatch.setattr(
        TunnelingModel, "_qp_table_span",
        lambda self: 2.0 * K_B * self.temperature,
    )
    config = SimulationConfig(temperature=0.52, seed=2, event_hash=True)
    engine = MonteCarloEngine(sset(vs=0.02, vd=-0.02), config)
    solver = engine.solver
    assert solver._kernel is None
    assert solver.step_path.startswith("python (a quasi-particle table's")
    assert str(native.EXPM1_MINUS_ONE) in solver.step_path
    engine.run(max_jumps=300)
    assert solver.stats.events == 300 and reaches_extension(solver)
