"""Tests for the per-circuit TunnelingModel bundle."""

import math
import pickle

import numpy as np
import pytest

from repro.circuit import Electrostatics, JunctionTable, build_set
from repro.constants import MEV
from repro.core import MonteCarloEngine, SimulationConfig
from repro.errors import PhysicsError
from repro.master import MasterEquationSolver
from repro.physics import TunnelingModel
from repro.physics.orthodox import orthodox_rates_both


def make_model(circuit, **kwargs):
    stat = Electrostatics(circuit)
    table = JunctionTable(circuit, stat)
    return TunnelingModel(circuit, stat, table, **kwargs)


class TestNormalModel:
    def test_sequential_rates_are_orthodox(self, set_circuit):
        model = make_model(set_circuit, temperature=4.2)
        dw_fw = np.array([-1e-22, 2e-22])
        dw_bw = np.array([1e-22, -2e-22])
        fw, bw = model.sequential_rates(dw_fw, dw_bw)
        expected = orthodox_rates_both(
            dw_fw, dw_bw, model.junction_table.resistance, 4.2
        )
        np.testing.assert_allclose(fw, expected[0])
        np.testing.assert_allclose(bw, expected[1])

    def test_no_cooper_pairs_on_normal_circuit(self, set_circuit):
        model = make_model(set_circuit, temperature=4.2)
        assert not model.include_cooper_pairs
        fw, bw = model.cooper_pair_rates(np.zeros(2), np.zeros(2))
        assert np.all(fw == 0.0) and np.all(bw == 0.0)

    def test_forcing_cooper_pairs_on_normal_circuit_rejected(self, set_circuit):
        with pytest.raises(PhysicsError):
            make_model(set_circuit, temperature=4.2, include_cooper_pairs=True)

    def test_cotunneling_paths_prepared(self, set_circuit):
        model = make_model(set_circuit, temperature=4.2, include_cotunneling=True)
        assert len(model.paths) == 2
        assert model.energy_floor > 0.0

    def test_negative_temperature_rejected(self, set_circuit):
        with pytest.raises(PhysicsError):
            make_model(set_circuit, temperature=-1.0)


class TestSuperconductingModel:
    def test_gap_evaluated_at_temperature(self, sset_circuit):
        model = make_model(sset_circuit, temperature=0.05)
        assert model.gap == pytest.approx(0.2 * MEV, rel=1e-3)

    def test_cooper_pairs_enabled_by_default(self, sset_circuit):
        model = make_model(sset_circuit, temperature=0.05)
        assert model.include_cooper_pairs
        assert np.all(model.josephson > 0.0)
        assert model.cooper_linewidth > 0.0

    def test_above_tc_rejected_with_guidance(self, sset_circuit):
        with pytest.raises(PhysicsError):
            make_model(sset_circuit, temperature=2.0)

    def test_qp_tables_shared_between_identical_junctions(self, sset_circuit):
        model = make_model(sset_circuit, temperature=0.05)
        assert model._qp_tables[0] is model._qp_tables[1]

    def test_qp_tables_shared_between_models_of_one_circuit(self, sset_circuit):
        """Engines on one circuit take the circuit's tables; they stay
        out of its pickle, so shard payload digests do not change."""
        before = pickle.dumps(sset_circuit)
        first = make_model(sset_circuit, temperature=0.05)
        second = make_model(sset_circuit, temperature=0.05)
        assert first._qp_tables[0] is second._qp_tables[0]
        assert not first._qp_tables[0]._rates.flags.writeable
        other = make_model(sset_circuit, temperature=0.1)
        assert other._qp_tables[0] is not first._qp_tables[0]
        assert pickle.dumps(sset_circuit) == before

    def test_cotunneling_on_superconducting_circuit_rejected(self, sset_circuit):
        with pytest.raises(PhysicsError):
            make_model(sset_circuit, temperature=0.05, include_cotunneling=True)

    def test_sequential_rates_respect_gap(self, sset_circuit):
        model = make_model(sset_circuit, temperature=0.05,
                           include_cooper_pairs=False)
        gap = model.gap
        inside = np.array([-1.5 * gap, -1.5 * gap])
        outside = np.array([-6.0 * gap, -6.0 * gap])
        fw_in, _ = model.sequential_rates(inside, inside)
        fw_out, _ = model.sequential_rates(outside, outside)
        assert np.all(fw_out > 1e6 * np.maximum(fw_in, 1e-300))


class TestPhysicsOverrides:
    """``cooper_linewidth`` and ``cotunneling_energy_floor`` are checked
    when the model is built: a NaN linewidth would otherwise run the
    clock to NaN, an infinite floor to ~1e141 s, and zero or negative
    values would raise only at the first event."""

    @pytest.fixture(params=["cooper_linewidth", "cotunneling_energy_floor"])
    def override(self, request, sset_circuit, set_circuit):
        """The override's name, a circuit whose channel uses it, and
        the model options that switch the channel on."""
        if request.param == "cooper_linewidth":
            return request.param, sset_circuit, {"temperature": 0.05}
        return request.param, set_circuit, {
            "temperature": 1.0, "include_cotunneling": True,
        }

    @pytest.mark.parametrize(
        "value", [math.nan, math.inf, 0.0, -1.0],
        ids=["nan", "inf", "zero", "negative"],
    )
    def test_bad_value_is_refused_at_build(self, override, value):
        name, circuit, options = override
        config = SimulationConfig(**options, **{name: value})
        with pytest.raises(PhysicsError, match=name):
            MonteCarloEngine(circuit, config)
        with pytest.raises(PhysicsError, match=name):
            MasterEquationSolver(circuit, **options, **{name: value})

    def test_finite_positive_value_runs(self, override):
        name, circuit, options = override
        engine = MonteCarloEngine(
            circuit, SimulationConfig(**options, seed=1, **{name: 1e-24}),
        )
        engine.run(max_jumps=10)
        assert math.isfinite(engine.solver.time)
        MasterEquationSolver(circuit, **options, **{name: 1e-24})
