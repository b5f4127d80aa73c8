"""Tests for the capacitance-matrix electrostatics (Eq. 2 and friends)."""

import pickle

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from repro.circuit import CircuitBuilder, Electrostatics, JunctionTable, build_set
from repro.circuit.electrostatics import (
    DENSE_LIMIT_DEFAULT,
    SOLVE_BLOCK,
    assemble_capacitance,
)
from repro.constants import E_CHARGE
from repro.core import MonteCarloEngine, SimulationConfig
from repro.errors import CircuitError
from repro.master import MasterEquationSolver
from repro.monitor.ledger import fingerprint_workload


class TestSETElectrostatics:
    """Closed-form checks on the single-island SET."""

    CSIGMA = 5e-18  # 1 + 1 + 3 aF

    def test_capacitance_matrix(self, set_stat):
        c = set_stat.capacitance_matrix()
        assert c.shape == (1, 1)
        assert c[0, 0] == pytest.approx(self.CSIGMA)

    def test_cinv(self, set_stat):
        assert set_stat.cinv_entry(0, 0) == pytest.approx(1.0 / self.CSIGMA)

    def test_neutral_island_potential_symmetric_bias(self, set_circuit, set_stat):
        # symmetric sources and equal junction caps leave the neutral
        # island at the gate-coupling potential: (C1 Vs + C2 Vd)/C = 0
        v = set_stat.potentials(np.zeros(1, dtype=np.int64),
                                set_circuit.external_voltages())
        assert v[0] == pytest.approx(0.0, abs=1e-15)

    def test_one_electron_shifts_potential_by_e_over_c(self, set_circuit, set_stat):
        v = set_stat.potentials(np.array([1]), set_circuit.external_voltages())
        assert v[0] == pytest.approx(-E_CHARGE / self.CSIGMA)

    def test_gate_voltage_couples_with_cg_over_csigma(self, set_circuit, set_stat):
        biased = set_circuit.with_source_voltages({"vg": 0.01})
        v = set_stat.potentials(np.zeros(1, dtype=np.int64),
                                biased.external_voltages())
        assert v[0] == pytest.approx(0.01 * 3e-18 / self.CSIGMA)

    def test_charging_energy_lead_island(self, set_circuit, set_stat):
        rj = set_circuit.resolved_junctions()[0]
        coeff = set_stat.charging_coefficient(rj.ref_a, rj.ref_b)
        e_c = 0.5 * E_CHARGE**2 * coeff
        assert e_c == pytest.approx(E_CHARGE**2 / (2 * self.CSIGMA))

    def test_free_energy_change_threshold(self, set_circuit, set_stat):
        # at Vds = e/C_sigma the source->island event becomes free
        threshold = E_CHARGE / self.CSIGMA
        biased = set_circuit.with_source_voltages(
            {"vs": threshold / 2, "vd": -threshold / 2}
        )
        vext = biased.external_voltages()
        v = set_stat.potentials(np.zeros(1, dtype=np.int64), vext)
        rj = biased.resolved_junctions()[1]  # drain junction: drain->island
        dw = set_stat.free_energy_change(rj.ref_a, rj.ref_b, v, vext)
        assert dw == pytest.approx(0.0, abs=1e-25)


class TestBookkeepingIdentity:
    def test_event_energy_identity_island_island(self, double_dot_circuit):
        stat = Electrostatics(double_dot_circuit)
        vext = double_dot_circuit.external_voltages()
        occ = np.array([0, 0], dtype=np.int64)
        rj = double_dot_circuit.resolved_junctions()[1]  # dot1 - dot2
        v = stat.potentials(occ, vext)
        dw = stat.free_energy_change(rj.ref_a, rj.ref_b, v, vext)
        f_before = stat.total_free_energy(occ, vext)
        occ_after = occ.copy()
        occ_after[rj.ref_a.index] -= 1
        occ_after[rj.ref_b.index] += 1
        f_after = stat.total_free_energy(occ_after, vext)
        assert dw == pytest.approx(f_after - f_before, rel=1e-9)

    def test_event_energy_identity_lead_island(self, double_dot_circuit):
        stat = Electrostatics(double_dot_circuit)
        vext = double_dot_circuit.external_voltages()
        occ = np.array([0, 0], dtype=np.int64)
        rj = double_dot_circuit.resolved_junctions()[0]  # lead_l - dot1
        v = stat.potentials(occ, vext)
        dw = stat.free_energy_change(rj.ref_a, rj.ref_b, v, vext)
        f_before = stat.total_free_energy(occ, vext)
        occ_after = occ.copy()
        occ_after[rj.ref_b.index] += 1
        f_after = stat.total_free_energy(occ_after, vext)
        # charge -e taken *from* the lead: the source does work -(-e)*V
        lead_voltage = vext[rj.ref_a.index]
        source_work = -(-E_CHARGE) * lead_voltage
        assert dw == pytest.approx(f_after - f_before - source_work, rel=1e-9)


class TestIncrementalUpdates:
    def test_potential_update_matches_resolve(self, double_dot_circuit):
        stat = Electrostatics(double_dot_circuit)
        vext = double_dot_circuit.external_voltages()
        occ = np.array([0, 0], dtype=np.int64)
        v0 = stat.potentials(occ, vext)
        rj = double_dot_circuit.resolved_junctions()[0]
        dv = stat.potential_update(rj.ref_a, rj.ref_b, -E_CHARGE)
        occ[rj.ref_b.index] += 1
        v1 = stat.potentials(occ, vext)
        assert np.allclose(v0 + dv, v1, atol=1e-18)

    def test_source_potential_update_matches_resolve(self, double_dot_circuit):
        stat = Electrostatics(double_dot_circuit)
        vext0 = double_dot_circuit.external_voltages()
        vext1 = vext0.copy()
        vext1[3] += 0.004  # gate 1
        occ = np.array([1, -1], dtype=np.int64)
        dv = stat.source_potential_update(vext1 - vext0)
        assert np.allclose(
            stat.potentials(occ, vext0) + dv, stat.potentials(occ, vext1),
            atol=1e-18,
        )


class TestBackends:
    def _ladders(self, lengths, interleaved=False):
        """Independent ladders of junctions with ground capacitors, one
        capacitive component each: in sequence, or with their islands'
        indices interleaved."""
        b = CircuitBuilder()
        steps = [(k, i) for k, n in enumerate(lengths) for i in range(n)]
        if interleaved:
            steps.sort(key=lambda step: (step[1], step[0]))
        for k, i in steps:
            b.add_junction(f"j{k}_{i}", f"n{k}_{i}", f"n{k}_{i+1}", 1e6, 1e-18)
            b.add_capacitor(f"c{k}_{i}", f"n{k}_{i+1}", "0", 5e-18)
        for k in range(len(lengths)):
            b.add_voltage_source(f"v{k}", f"n{k}_0", 0.01)
        return b.build()

    def test_sparse_matches_dense(self):
        circuit = self._ladders([30])
        dense = Electrostatics(circuit, dense_limit=1000)
        sparse = Electrostatics(circuit, dense_limit=5)
        assert dense.is_dense and not sparse.is_dense
        occ = np.zeros(circuit.n_islands, dtype=np.int64)
        occ[7] = 3
        vext = circuit.external_voltages()
        assert np.allclose(dense.potentials(occ, vext),
                           sparse.potentials(occ, vext), atol=1e-18)
        assert dense.cinv_entry(3, 11) == pytest.approx(
            sparse.cinv_entry(3, 11), rel=1e-10
        )

    def test_sparse_column_cache(self):
        # C^-1 is formed at construction: column access performs no LU solve
        circuit = self._ladders([20])
        sparse = Electrostatics(circuit, dense_limit=5)
        expected = sparse.cinv_column(4).copy()
        sparse._lu = None  # any further solve would raise
        assert np.array_equal(sparse.cinv_column(4), expected)
        assert sparse.cinv_entry(9, 4) == expected[9]

    def _assert_block_columns_match_single_solves(self, circuit):
        sparse = Electrostatics(circuit, dense_limit=5)
        lu = spla.splu(assemble_capacitance(circuit)[0])
        for island in range(circuit.n_islands):
            unit = np.zeros(circuit.n_islands)
            unit[island] = 1.0
            assert np.array_equal(sparse.cinv_column(island), lu.solve(unit))

    def test_block_columns_match_single_solves(self):
        # several full blocks plus a partial one
        self._assert_block_columns_match_single_solves(
            self._ladders([2 * SOLVE_BLOCK + 40])
        )

    def test_block_columns_match_single_solves_multi_component(self):
        # components end inside blocks, and one spans several blocks
        circuit = self._ladders([3, SOLVE_BLOCK + 5, 1, 2 * SOLVE_BLOCK, 7])
        assert Electrostatics(circuit, dense_limit=5).component_sizes == [
            3, SOLVE_BLOCK + 5, 1, 2 * SOLVE_BLOCK, 7,
        ]
        self._assert_block_columns_match_single_solves(circuit)

    @pytest.mark.parametrize("interleaved", [False, True])
    def test_packed_entries_match_solves(self, interleaved):
        circuit = self._ladders([9, 4, 12], interleaved=interleaved)
        n = circuit.n_islands
        cmat = assemble_capacitance(circuit)[0]
        sparse = Electrostatics(circuit, dense_limit=5)
        dense = Electrostatics(circuit)
        # the sparse backend's solves and the dense backend's inverse
        lu = spla.splu(cmat)
        solved = np.column_stack([lu.solve(np.eye(n)[:, k]) for k in range(n)])
        inverse = np.linalg.inv(cmat.toarray())
        rows, cols = (grid.ravel() for grid in np.indices((n, n)))
        for stat, expected in ((sparse, solved), (dense, inverse)):
            entries = stat.cinv_entries(rows, cols)
            assert np.array_equal(entries, expected[rows, cols])
            assert [stat.cinv_entry(r, c) for r, c in zip(rows, cols)] == (
                entries.tolist()
            )
            for k in range(n):
                column = stat.cinv_column(k)
                assert not column.flags.writeable
                assert np.array_equal(column, expected[:, k])
                # bit for bit inside the span, and zero outside it
                lo, hi = stat.component_span(k)
                assert column[lo:hi].tobytes() == expected[lo:hi, k].tobytes()
                assert not column[:lo].any() and not column[hi:].any()
        # the backends agree on the block structure, and to rounding inside
        assert np.array_equal(solved == 0.0, inverse == 0.0)
        assert np.allclose(solved, inverse, rtol=1e-12, atol=0.0)

    def test_packed_store_holds_span_columns_only(self):
        circuit = self._ladders([9, 4, 12], interleaved=True)
        sparse = Electrostatics(circuit, dense_limit=5)
        dense = Electrostatics(circuit)
        spans = [sparse.component_span(k) for k in range(circuit.n_islands)]
        assert spans == [dense.component_span(k) for k in range(25)]
        assert sparse.cinv_nbytes == 8 * sum(hi - lo for lo, hi in spans)
        assert dense.cinv_nbytes == 8 * 25 * 25 > sparse.cinv_nbytes
        assert sparse.cinv_layout.values.ndim == 1
        assert not any(
            isinstance(value, np.ndarray) and value.size >= 25 * 25
            for value in vars(sparse).values()
        )

    @pytest.mark.parametrize(
        "dense_limit", [DENSE_LIMIT_DEFAULT, 0], ids=["dense", "sparse"]
    )
    def test_entry_outside_component_span_rejected(self, monkeypatch, dense_limit):
        """The set-up guard: C^-1 must vanish outside each column's span."""
        circuit = self._ladders([3, 4])
        doctored_island = 5  # second ladder; row 0 is outside its span

        def doctor(block, first_column):
            column = doctored_island - first_column
            if 0 <= column < block.shape[1]:
                block[0, column] = 1e-30
            return block

        if dense_limit:
            real_inv = np.linalg.inv
            monkeypatch.setattr(
                np.linalg, "inv", lambda matrix: doctor(real_inv(matrix), 0)
            )
        else:
            real_splu = spla.splu

            class Doctored:
                def __init__(self, matrix):
                    self._lu = real_splu(matrix)

                def solve(self, rhs):
                    # the block's first column is the first unit vector's
                    first = int(np.argmax(rhs[:, 0]))
                    return doctor(self._lu.solve(rhs), first)

            monkeypatch.setattr(spla, "splu", Doctored)
        with pytest.raises(CircuitError, match=r"island 'n1_3' \(index 5\)"):
            Electrostatics(circuit, dense_limit=dense_limit)

    @pytest.mark.parametrize("dense_limit", [5, DENSE_LIMIT_DEFAULT])
    def test_vectorised_charging_matches_scalar(self, dense_limit):
        for circuit in (build_set(), self._ladders([40])):
            stat = Electrostatics(circuit, dense_limit=dense_limit)
            table = JunctionTable(circuit, stat)
            scalar = [
                stat.charging_coefficient(rj.ref_a, rj.ref_b)
                for rj in circuit.resolved_junctions()
            ]
            assert np.array_equal(table.charging, scalar)

    @pytest.mark.parametrize(
        "dense_limit", [DENSE_LIMIT_DEFAULT, 0], ids=["dense", "sparse"]
    )
    def test_floating_island_group_rejected(self, dense_limit):
        b = CircuitBuilder()
        b.add_junction("j1", "a", "b", 1e6, 1e-18)  # two islands, no anchor
        with pytest.raises(CircuitError):
            Electrostatics(b.build(), dense_limit=dense_limit)

    def test_all_driven_circuit_rejected(self):
        b = CircuitBuilder()
        b.add_junction("j1", "a", "0", 1e6, 1e-18)
        b.add_voltage_source("v1", "a", 0.01)
        with pytest.raises(CircuitError):
            Electrostatics(b.build())


class TestSharedPreparation:
    """One read-only electrostatics + junction table per circuit."""

    def test_shared_arrays_are_read_only(self, double_dot_circuit):
        stat, table = double_dot_circuit.prepared_electrostatics()
        with pytest.raises(ValueError):
            stat.cinv_column(0)[0] = 0.0
        with pytest.raises(ValueError):
            stat.background_charge[0] = 0.0
        for name in ("resistance", "capacitance", "charging", "a_is_island",
                     "a_index", "b_is_island", "b_index"):
            with pytest.raises(ValueError):
                getattr(table, name)[0] = 0

    def test_preparing_leaves_the_content_address_unchanged(self, set_circuit):
        config = SimulationConfig(temperature=5.0, seed=3)

        def identity():
            return (
                pickle.dumps(set_circuit, protocol=pickle.HIGHEST_PROTOCOL),
                fingerprint_workload(set_circuit, config, kind="run"),
            )

        before = identity()
        engine = MonteCarloEngine(set_circuit, config)
        master = MasterEquationSolver(set_circuit, temperature=5.0)
        assert master.stat is engine.electrostatics
        assert identity() == before

    def test_engines_share_the_pair_and_match_unshared_engines(self):
        from repro.logic import build_benchmark

        mapped = build_benchmark("c432")
        circuit = mapped.circuit
        assert circuit.n_islands > DENSE_LIMIT_DEFAULT  # sparse backend
        blob = pickle.dumps(circuit)

        def engine(on, solver):
            return MonteCarloEngine(on, SimulationConfig(
                temperature=mapped.params.temperature, solver=solver,
                seed=11, event_hash=True,
            ))

        def event_hashes(engines):
            for _ in range(3):  # interleaved, as the benchmark runs them
                for eng in engines:
                    eng.run(max_jumps=100)
            return [eng.event_hash() for eng in engines]

        solvers = ("adaptive", "nonadaptive")
        shared = [engine(circuit, solver) for solver in solvers]
        assert shared[0].electrostatics is shared[1].electrostatics
        assert shared[0].junction_table is shared[1].junction_table
        # each reference engine gets its own unpickled copy: nothing shared
        alone = [engine(pickle.loads(blob), solver) for solver in solvers]
        assert alone[0].electrostatics is not alone[1].electrostatics
        assert event_hashes(shared) == event_hashes(alone)
