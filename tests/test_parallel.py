"""Tests for ``repro.parallel``: deterministic seeding, shard/merge
sweeps, ensemble runs, and the sweep-layer bugfixes that rode along
(per-row seeds, ``FrozenCircuitError`` narrowing, warm-up validation).
"""

import dataclasses

import numpy as np
import pytest

from repro import (
    FrozenCircuitError,
    MonteCarloEngine,
    SimulationConfig,
    build_set,
    ensemble_iv,
    sweep_iv,
    sweep_map,
)
from repro.errors import SimulationError
from repro.parallel import as_seed_sequence, execute_shards, resolve_jobs, spawn_seeds
from repro.telemetry import registry as telemetry
from repro.telemetry.registry import TelemetryRegistry

CONFIG = SimulationConfig(temperature=5.0, solver="adaptive", seed=7)
VOLTS = np.linspace(-0.04, 0.04, 6)
GATES = np.linspace(0.0, 0.01, 3)


# ----------------------------------------------------------------------
# seed spawning
# ----------------------------------------------------------------------

class TestSeeds:
    def test_spawn_is_deterministic_and_stateless(self):
        a = spawn_seeds(7, 4)
        b = spawn_seeds(7, 4)
        assert [s.spawn_key for s in a] == [s.spawn_key for s in b]
        assert [s.entropy for s in a] == [s.entropy for s in b]

    def test_spawn_matches_numpy_spawn_on_fresh_root(self):
        ours = spawn_seeds(13, 3)
        numpys = np.random.SeedSequence(13).spawn(3)
        for mine, theirs in zip(ours, numpys):
            assert mine.entropy == theirs.entropy
            assert mine.spawn_key == theirs.spawn_key

    def test_spawn_does_not_mutate_a_passed_sequence(self):
        root = np.random.SeedSequence(5)
        spawn_seeds(root, 3)
        assert root.n_children_spawned == 0

    def test_children_draw_distinct_streams(self):
        a, b = spawn_seeds(0, 2)
        ra = np.random.default_rng(a).random(8)
        rb = np.random.default_rng(b).random(8)
        assert not np.array_equal(ra, rb)

    def test_bad_seeds_rejected(self):
        with pytest.raises(SimulationError):
            as_seed_sequence(-1)
        with pytest.raises(SimulationError):
            as_seed_sequence("zero")
        with pytest.raises(SimulationError):
            spawn_seeds(0, -1)

    def test_config_accepts_seed_sequence(self):
        seq = np.random.SeedSequence(7)
        cfg = CONFIG.replace(seed=seq)
        assert cfg.seed_sequence() is seq
        # int seed s and SeedSequence(s) drive bit-identical engines
        circuit = build_set()
        i_int = MonteCarloEngine(circuit, CONFIG).measure_current([0], 2000)
        i_seq = MonteCarloEngine(
            circuit, CONFIG.replace(seed=np.random.SeedSequence(7))
        ).measure_current([0], 2000)
        assert i_int == i_seq

    def test_config_rejects_bad_seed(self):
        with pytest.raises(SimulationError):
            SimulationConfig(seed=-2)
        with pytest.raises(SimulationError):
            SimulationConfig(seed=1.5)


# ----------------------------------------------------------------------
# the generic pool
# ----------------------------------------------------------------------

def _square(x):
    return x * x


def _touch_metrics(x):
    reg = telemetry.ACTIVE
    if reg is not None:
        reg.counter("toy.calls").add()
        reg.counter("toy.sum").add(x)
        reg.histogram("toy.x").observe(float(x))
    return x


def _boom(x):
    raise SimulationError(f"shard {x} failed")


class TestExecuteShards:
    def test_results_in_shard_order(self):
        assert execute_shards(_square, [3, 1, 2], jobs=1) == [9, 1, 4]
        assert execute_shards(_square, list(range(8)), jobs=4) == [
            x * x for x in range(8)
        ]

    def test_shard_errors_propagate(self):
        with pytest.raises(SimulationError, match="shard 1 failed"):
            execute_shards(_boom, [1], jobs=1)
        with pytest.raises(SimulationError):
            execute_shards(_boom, [1, 2], jobs=2)

    def test_jobs_validation(self):
        assert resolve_jobs(1) == 1
        assert resolve_jobs(None) >= 1
        assert resolve_jobs(0) >= 1
        with pytest.raises(SimulationError):
            resolve_jobs(-3)

    def test_worker_metrics_merge_into_parent(self):
        with telemetry.session(trace=False) as reg:
            execute_shards(_touch_metrics, [1, 2, 3, 4], jobs=2)
        counters = reg.metrics()["counters"]
        assert counters["toy.calls"] == 4
        assert counters["toy.sum"] == 10
        hist = reg.metrics()["histograms"]["toy.x"]
        assert hist["count"] == 4
        assert hist["min"] == 1.0 and hist["max"] == 4.0
        assert hist["total"] == 10.0

    def test_merge_snapshot_combines_moments(self):
        parent = TelemetryRegistry(trace=False)
        parent.counter("c").add(2)
        parent.histogram("h").observe(5.0)
        child = TelemetryRegistry(trace=False)
        child.counter("c").add(3)
        child.histogram("h").observe(1.0)
        child.histogram("h").observe(9.0)
        child.gauge("g").set(4.5)
        parent.merge_snapshot(child.metrics())
        merged = parent.metrics()
        assert merged["counters"]["c"] == 5
        assert merged["gauges"]["g"] == 4.5
        assert merged["histograms"]["h"]["count"] == 3
        assert merged["histograms"]["h"]["min"] == 1.0
        assert merged["histograms"]["h"]["max"] == 9.0
        assert merged["histograms"]["h"]["total"] == 15.0
        # the Chan parallel merge carries the second moment, so the
        # merged std equals the population std of the pooled samples
        assert merged["histograms"]["h"]["std"] == pytest.approx(
            np.std([5.0, 1.0, 9.0])
        )

    def test_merge_snapshot_std_matches_pooled_population(self):
        values = [0.5, 1.5, 2.5, 4.0, 8.0, 16.0, 0.25]
        shards = [values[:3], values[3:5], values[5:]]
        parent = TelemetryRegistry(trace=False)
        for samples in shards:
            child = TelemetryRegistry(trace=False)
            for v in samples:
                child.histogram("h").observe(v)
            parent.merge_snapshot(child.metrics())
        assert parent.histogram("h").std == pytest.approx(np.std(values))

    def test_merge_snapshot_gauges_are_shard_deterministic(self):
        """With shard keys, gauge folding is completion-order invariant:
        the highest shard index wins, so ``repro profile`` metrics don't
        depend on which worker reported last."""
        def merged_gauge(order):
            parent = TelemetryRegistry(trace=False)
            for shard in order:
                child = TelemetryRegistry(trace=False)
                child.gauge("g").set(float(shard))
                parent.merge_snapshot(child.metrics(), shard=shard)
            return parent.gauge("g").value

        assert merged_gauge([0, 1, 2]) == merged_gauge([2, 0, 1]) == 2.0


# ----------------------------------------------------------------------
# sweep_map per-row seeding (regression: correlated rows)
# ----------------------------------------------------------------------

class TestMapRowSeeding:
    def test_identical_gate_rows_are_decorrelated(self):
        """Two rows at the same gate voltage are independent MC
        experiments; with the old shared seed they replayed the exact
        same stream and came out identical."""
        circuit = build_set()
        result = sweep_map(
            circuit, VOLTS, [0.0, 0.0], CONFIG, jumps_per_point=400,
        )
        assert not np.array_equal(result.currents[0], result.currents[1])
        # decorrelated noise, same physics: the rows still agree within
        # MC statistics at the conducting points
        high_bias = np.abs(VOLTS) >= 0.03
        np.testing.assert_allclose(
            result.currents[0][high_bias], result.currents[1][high_bias],
            rtol=0.5,
        )

    def test_map_is_reproducible(self):
        circuit = build_set()
        a = sweep_map(circuit, VOLTS, GATES, CONFIG, jumps_per_point=400)
        b = sweep_map(circuit, VOLTS, GATES, CONFIG, jumps_per_point=400)
        assert np.array_equal(a.currents, b.currents)


# ----------------------------------------------------------------------
# serial == parallel, exactly
# ----------------------------------------------------------------------

class TestSerialParallelEquality:
    @pytest.fixture(scope="class")
    def map_results(self):
        circuit = build_set()
        return {
            jobs: sweep_map(
                circuit, VOLTS, GATES, CONFIG, jumps_per_point=400, jobs=jobs,
            )
            for jobs in (1, 2, 4)
        }

    def test_map_currents_identical_across_jobs(self, map_results):
        serial = map_results[1]
        for jobs in (2, 4):
            assert np.array_equal(serial.currents, map_results[jobs].currents)

    def test_map_stats_identical_across_jobs(self, map_results):
        serial = map_results[1]
        for jobs in (2, 4):
            assert serial.stats.as_dict() == map_results[jobs].stats.as_dict()

    def test_iv_chunked_identical_across_jobs(self):
        circuit = build_set()
        curves = {
            jobs: sweep_iv(
                circuit, VOLTS, CONFIG, jumps_per_point=400,
                chunks=3, jobs=jobs,
            )
            for jobs in (1, 2, 4)
        }
        for jobs in (2, 4):
            assert np.array_equal(curves[1].currents, curves[jobs].currents)
            assert curves[1].stats.as_dict() == curves[jobs].stats.as_dict()

    def test_iv_single_chunk_matches_legacy_serial_loop(self):
        """chunks=1 must stay byte-identical to the historical path:
        one engine, charge state carried across every point."""
        from repro.core.sweep import symmetric_bias

        circuit = build_set()
        curve = sweep_iv(circuit, VOLTS, CONFIG, jumps_per_point=400)
        setter = symmetric_bias()
        engine = MonteCarloEngine(circuit, CONFIG)
        legacy = np.empty(len(VOLTS))
        for i, v in enumerate(VOLTS):
            engine.set_sources(setter(float(v)))
            try:
                legacy[i] = engine.measure_current([0], 400)
            except FrozenCircuitError:
                legacy[i] = 0.0
        assert np.array_equal(curve.currents, legacy)

    def test_parallel_telemetry_counters_match_serial(self):
        circuit = build_set()
        metrics = {}
        for jobs in (1, 2):
            with telemetry.session(trace=False) as reg:
                result = sweep_map(
                    circuit, VOLTS, GATES, CONFIG,
                    jumps_per_point=400, jobs=jobs,
                )
            counters = {
                name: value
                for name, value in reg.metrics()["counters"].items()
                if not name.startswith("parallel.")
            }
            metrics[jobs] = (counters, result.stats)
        assert metrics[1][0] == metrics[2][0]
        # merged counters reconcile with the merged SolverStats
        assert metrics[2][0]["solver.events"] == metrics[2][1].events

    def test_map_stats_equal_per_row_sums(self):
        from repro.core.sweep import _MapRow, _run_map_row, symmetric_bias

        circuit = build_set()
        whole = sweep_map(circuit, VOLTS, GATES, CONFIG, jumps_per_point=400)
        # replay each row shard exactly as sweep_map lays it out
        row_seeds = spawn_seeds(CONFIG.seed, len(GATES))
        summed: dict[str, int] = {}
        for gi, vg in enumerate(GATES):
            shard = _run_map_row(_MapRow(
                index=gi, circuit=circuit,
                config=CONFIG.replace(seed=row_seeds[gi]),
                gate_voltage=float(vg), gate_source="vg",
                bias_voltages=np.asarray(VOLTS, dtype=float),
                jumps_per_point=400, junctions=[0], orientations=None,
                bias_setter=symmetric_bias(),
            ))
            for name, value in shard.stats.as_dict().items():
                summed[name] = summed.get(name, 0) + value
        # the map's merged counters are exactly the per-shard sums
        assert whole.stats.as_dict() == summed


# ----------------------------------------------------------------------
# ensembles
# ----------------------------------------------------------------------

class TestEnsemble:
    def test_shapes_and_determinism_across_jobs(self):
        circuit = build_set()
        runs = {
            jobs: ensemble_iv(
                circuit, VOLTS, 3, CONFIG, jumps_per_point=400, jobs=jobs,
            )
            for jobs in (1, 3)
        }
        serial = runs[1]
        assert serial.replica_currents.shape == (3, len(VOLTS))
        assert serial.replicas == 3
        assert np.array_equal(
            serial.replica_currents, runs[3].replica_currents
        )

    def test_replicas_are_decorrelated_and_averaged(self):
        circuit = build_set()
        ensemble = ensemble_iv(
            circuit, VOLTS, 3, CONFIG, jumps_per_point=400,
        )
        assert not np.array_equal(
            ensemble.replica_currents[0], ensemble.replica_currents[1]
        )
        curve = ensemble.mean_curve()
        assert np.array_equal(curve.currents, ensemble.mean_currents)
        assert np.array_equal(
            curve.currents, ensemble.replica_currents.mean(axis=0)
        )
        assert ensemble.std_currents.shape == (len(VOLTS),)

    def test_stats_merge_across_replicas(self):
        circuit = build_set()
        ensemble = ensemble_iv(
            circuit, VOLTS, 2, CONFIG, jumps_per_point=400,
        )
        assert ensemble.stats is not None
        assert ensemble.stats.events > 0

    def test_replica_count_validated(self):
        with pytest.raises(SimulationError):
            ensemble_iv(build_set(), VOLTS, 0, CONFIG)


# ----------------------------------------------------------------------
# error-handling bugfixes in the sweep layer
# ----------------------------------------------------------------------

class TestFrozenCircuitNarrowing:
    def test_frozen_error_is_a_simulation_error(self):
        assert issubclass(FrozenCircuitError, SimulationError)

    def test_frozen_step_raises_frozen_error(self):
        engine = MonteCarloEngine(
            build_set(vs=0.0, vd=0.0),
            SimulationConfig(temperature=0.0, solver="adaptive"),
        )
        with pytest.raises(FrozenCircuitError):
            engine.solver.step()

    def test_sweep_still_zeroes_frozen_points(self):
        curve = sweep_iv(
            build_set(), [0.005, 0.04],
            SimulationConfig(temperature=0.05, solver="nonadaptive", seed=2),
            jumps_per_point=1500,
        )
        assert curve.currents[0] == 0.0
        assert curve.currents[1] > 1e-10

    def test_sweep_no_longer_swallows_genuine_failures(self):
        """Regression: a config error used to come back as a silent
        row of zero currents."""
        with pytest.raises(SimulationError, match="warm-up truncates"):
            sweep_iv(build_set(), [0.04], CONFIG, jumps_per_point=3)
        with pytest.raises(SimulationError, match="warm-up truncates"):
            sweep_map(build_set(), [0.04], [0.0], CONFIG, jumps_per_point=3)


class TestMeasureCurrentValidation:
    def test_small_jumps_rejected(self):
        engine = MonteCarloEngine(build_set(), CONFIG)
        with pytest.raises(SimulationError, match="too small to honor"):
            engine.measure_current([0], jumps=4)

    def test_warmup_fraction_range_validated(self):
        engine = MonteCarloEngine(build_set(), CONFIG)
        with pytest.raises(SimulationError, match="warmup_fraction"):
            engine.measure_current([0], jumps=100, warmup_fraction=1.0)
        with pytest.raises(SimulationError, match="warmup_fraction"):
            engine.measure_current([0], jumps=100, warmup_fraction=-0.1)

    def test_zero_warmup_allows_small_budgets(self):
        engine = MonteCarloEngine(build_set(), CONFIG)
        current = engine.measure_current([0], jumps=4, warmup_fraction=0.0)
        assert np.isfinite(current)

    def test_lint_flags_warmup_starved_budget(self):
        from repro.lint.simconfig import check_jumps

        codes = [d.code for d in check_jumps(4)]
        assert "SEM045" in codes
        assert all(d.code != "SEM045" for d in check_jumps(5))


# ----------------------------------------------------------------------
# deck / CLI integration
# ----------------------------------------------------------------------

DECK = """\
junc 1 1 4 1e-6 1e-18
junc 2 2 4 1e-6 1e-18
cap 3 4 3e-18
vdc 1 0.02
vdc 2 -0.02
vdc 3 0.0
symm 1
num j 2
num ext 3
num nodes 4
temp 5
record 1 2 2
jumps 600 {runs}
sweep 2 0.02 0.01
"""


class TestDeckParallel:
    def test_deck_jobs_and_chunks_are_reproducible(self):
        from repro.netlist import parse_semsim

        deck = parse_semsim(DECK.format(runs=1))
        serial = deck.run(seed=3)
        same = deck.run(seed=3, jobs=2)  # chunks=1: identical layout
        assert np.array_equal(serial.currents, same.currents)
        chunked = {
            jobs: deck.run(seed=3, jobs=jobs, chunks=2) for jobs in (1, 2)
        }
        assert np.array_equal(chunked[1].currents, chunked[2].currents)

    def test_deck_runs_directive_becomes_ensemble_average(self):
        from repro.netlist import parse_semsim

        single = parse_semsim(DECK.format(runs=1)).run(seed=3)
        averaged = parse_semsim(DECK.format(runs=3)).run(seed=3)
        assert averaged.currents.shape == single.currents.shape
        assert not np.array_equal(averaged.currents, single.currents)
        again = parse_semsim(DECK.format(runs=3)).run(seed=3, jobs=2)
        assert np.array_equal(averaged.currents, again.currents)

    def test_cli_jobs_flag(self, tmp_path, capsys):
        from repro.cli import main

        deck_path = tmp_path / "deck.txt"
        deck_path.write_text(DECK.format(runs=1))
        outputs = {}
        for jobs in (1, 2):
            out = tmp_path / f"out{jobs}.csv"
            code = main([
                "run", str(deck_path), "--seed", "5",
                "--jobs", str(jobs), "--chunks", "2",
                "--output", str(out),
            ])
            assert code == 0
            outputs[jobs] = out.read_text()
        capsys.readouterr()
        assert outputs[1] == outputs[2]
        assert outputs[1].startswith("sweep_voltage_V,current_A")

    def test_cli_rejects_bad_jobs(self, tmp_path, capsys):
        from repro.cli import main

        deck_path = tmp_path / "deck.txt"
        deck_path.write_text(DECK.format(runs=1))
        code = main(["run", str(deck_path), "--jobs", "-2"])
        capsys.readouterr()
        assert code == 1


# ----------------------------------------------------------------------
# the IVCurve surface parallel callers rely on
# ----------------------------------------------------------------------

class TestCurveMergeSurface:
    def test_iv_stats_are_merged_chunk_sums(self):
        circuit = build_set()
        curve = sweep_iv(
            circuit, VOLTS, CONFIG, jumps_per_point=400, chunks=3,
        )
        assert curve.stats is not None
        assert curve.stats.events == 400 * len(VOLTS)

    def test_empty_sweep_returns_empty_curve(self):
        curve = sweep_iv(build_set(), [], CONFIG)
        assert curve.currents.shape == (0,)
        assert dataclasses.is_dataclass(curve)
