"""The adaptive solver's scalar fast path against the loops it replaced.

The per-event test reads a test limit stored when the junction's rate
was computed, the recompute writes that limit, and the sampling tree is
repaired once per flagged batch.  ``ReferenceAdaptiveSolver`` keeps the
earlier loops: the threshold rebuilt from the stored free energies on
every test, and one root-path repair per flagged junction.  Both must
realise the same events and leave the same state, bit for bit.
"""

import math

import numpy as np
import pytest

from repro.circuit import Superconductor, build_set
from repro.constants import E_CHARGE, K_B, MEV
from repro.core import MonteCarloEngine, SimulationConfig
from repro.core.adaptive import AdaptiveSolver
from repro.logic import build_benchmark, find_step_stimulus


def repair_leaf(tree, j, pair_rate):
    """Single-leaf tree update: set leaf ``j`` and repair its root path."""
    nodes = tree._tree
    i = tree._size + j
    nodes[i] = pair_rate
    i //= 2
    while i:
        nodes[i] = nodes[2 * i] + nodes[2 * i + 1]
        i //= 2


class ReferenceAdaptiveSolver(AdaptiveSolver):
    """Algorithm 1's scalar path as written before the stored limits."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.repaired_leaves = 0
        if self._tree is not None:
            # the numpy recompute's batch goes through per-leaf repairs too
            def update(leaves, pair_rates):
                for j, pair_rate in zip(leaves, pair_rates):
                    repair_leaf(self._tree, j, pair_rate)
                    self.repaired_leaves += 1

            self._tree.update = update

    def _recompute_scalar(self, indices):
        kt = K_B * self.model.temperature
        e = E_CHARGE
        v = self._v
        vext = self.vext
        a_isl, a_idx = self._a_isl_list, self._a_idx_list
        b_isl, b_idx = self._b_isl_list, self._b_idx_list
        charging = self._charging_list
        resistance = self._resistance_list
        fw_arr, bw_arr = self._seq_fw, self._seq_bw
        dwf_arr, dwb_arr = self._dw_fw, self._dw_bw
        tree = self._tree
        e2 = e * e

        for i in indices:
            phi_a = v[a_idx[i]] if a_isl[i] else vext[a_idx[i]]
            phi_b = v[b_idx[i]] if b_isl[i] else vext[b_idx[i]]
            drop = phi_b - phi_a
            self_energy = charging[i]
            dwf = -e * drop + self_energy
            dwb = +e * drop + self_energy
            denominator = e2 * resistance[i]
            if kt > 0.0:
                x = dwf / kt
                if x > 500.0:
                    fw = 0.0
                elif -1e-12 < x < 1e-12:
                    fw = kt / denominator
                else:
                    fw = dwf / math.expm1(x) / denominator
                x = dwb / kt
                if x > 500.0:
                    bw = 0.0
                elif -1e-12 < x < 1e-12:
                    bw = kt / denominator
                else:
                    bw = dwb / math.expm1(x) / denominator
            else:
                fw = -dwf / denominator if dwf < 0.0 else 0.0
                bw = -dwb / denominator if dwb < 0.0 else 0.0
            dwf_arr[i] = dwf
            dwb_arr[i] = dwb
            fw_arr[i] = fw
            bw_arr[i] = bw
            self._b0[i] = 0.0
            if tree is not None:
                repair_leaf(tree, i, fw + bw)
                self.repaired_leaves += 1
        self.stats.sequential_rate_evaluations += 2 * len(indices)
        self.stats.flagged_recalculations += len(indices)

    def _adaptive_update(self, dv, dvext, seeds):
        if len(seeds) > 256:
            self._adaptive_update_vector(dv, dvext, seeds)
            return
        lam = self.config.adaptive_threshold
        scale = lam / E_CHARGE
        cap = self._energy_cap
        b0 = self._b0
        dw_fw, dw_bw = self._dw_fw, self._dw_bw
        a_isl, a_idx = self._a_isl_list, self._a_idx_list
        b_isl, b_idx = self._b_isl_list, self._b_idx_list
        neighbors = self._neighbors
        ext = dvext
        visited = set()
        flagged = []
        queue = list(seeds)
        head = 0
        while head < len(queue):
            i = queue[head]
            head += 1
            if i in visited:
                continue
            visited.add(i)
            change = 0.0
            if b_isl[i]:
                change += dv[b_idx[i]]
            elif ext is not None:
                change += ext[b_idx[i]]
            if a_isl[i]:
                change -= dv[a_idx[i]]
            elif ext is not None:
                change -= ext[a_idx[i]]
            b = b0[i] + change
            fw = dw_fw[i]
            bw = dw_bw[i]
            limit = fw if fw >= 0 else -fw
            other = bw if bw >= 0 else -bw
            if other < limit:
                limit = other
            if cap < limit:
                limit = cap
            if abs(b) >= scale * limit:
                flagged.append(i)
                queue.extend(neighbors[i])
            else:
                b0[i] = b
        if flagged:
            self._recompute_junctions(flagged)


def engine_pair(circuit, config, occupation=None):
    """Two engines on one circuit: the fast path and the reference."""
    fast = MonteCarloEngine(circuit, config, initial_occupation=occupation)
    ref = MonteCarloEngine(circuit, config, initial_occupation=occupation)
    ref.solver = ReferenceAdaptiveSolver(
        circuit, ref.electrostatics, ref.junction_table, ref.model,
        ref.config, ref.rng, occupation,
    )
    return fast, ref


def same_bits(a, b) -> bool:
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def assert_same_state(fast, ref):
    assert fast.event_hash() == ref.event_hash()
    f, r = fast.solver, ref.solver
    for name in ("_dw_fw", "_dw_bw", "_seq_fw", "_seq_bw", "_b0", "_v"):
        assert same_bits(getattr(f, name), getattr(r, name)), name
    if f._tree is None:
        assert r._tree is None
    else:
        assert same_bits(f._tree._tree, r._tree._tree)
    # the stored limits are the ones the vectorised formula gives
    assert same_bits(f._limit, f._limits(f._dw_fw, f._dw_bw))


def run_toggled(fast, ref, vectors, blocks, events):
    for k in range(blocks):
        for engine in (fast, ref):
            engine.set_sources(vectors[k % 2])
            engine.run(max_jumps=events)
        assert_same_state(fast, ref)


@pytest.mark.parametrize(
    "superconducting,temperature,threshold",
    [(False, 5.0, None), (False, 0.0, None), (False, 5.0, 0.0),
     (True, 0.05, None)],
    ids=["5K", "T0", "lambda0", "superconducting"],
)
def test_set_matches_reference(superconducting, temperature, threshold):
    """The superconducting SET recomputes through the numpy path and
    draws without the sampling tree."""
    config = SimulationConfig(
        temperature=temperature, seed=11, event_hash=True,
        full_refresh_interval=1500,
    )
    if threshold is not None:
        config = config.replace(adaptive_threshold=threshold)
    superconductor = (
        Superconductor(delta0=0.2 * MEV, tc=1.2) if superconducting else None
    )
    fast, ref = engine_pair(build_set(superconductor=superconductor), config)
    vectors = (
        {"vs": 0.03, "vd": -0.03, "vg": 0.004},
        {"vs": 0.05, "vd": -0.05, "vg": -0.002},
    )
    run_toggled(fast, ref, vectors, blocks=8, events=400)
    assert fast.solver.stats.events == 3200
    assert fast.solver.stats.full_refreshes > 1
    assert (ref.solver.repaired_leaves > 0) == (not superconducting)


def test_74ls280_matches_reference():
    mapped = build_benchmark("74LS280")
    stimulus = find_step_stimulus(mapped.netlist, 0)
    vectors = (
        mapped.input_voltages(stimulus.after),
        mapped.input_voltages(stimulus.before),
    )
    config = SimulationConfig(
        temperature=mapped.params.temperature, seed=3, event_hash=True,
    )
    fast, ref = engine_pair(
        mapped.circuit, config, mapped.initial_occupation(stimulus.before)
    )
    seen = {"vector": 0, "numpy_recompute": 0}
    solver = fast.solver
    vector_walk = solver._adaptive_update_vector
    recompute = solver._recompute_junctions

    def counting_vector(*args):
        seen["vector"] += 1
        return vector_walk(*args)

    def counting_recompute(indices):
        if not isinstance(indices, list) or len(indices) > 64:
            seen["numpy_recompute"] += 1
        return recompute(indices)

    solver._adaptive_update_vector = counting_vector
    solver._recompute_junctions = counting_recompute
    run_toggled(fast, ref, vectors, blocks=6, events=500)
    assert solver.stats.events == 3000
    assert seen["vector"] >= 6
    assert seen["numpy_recompute"] >= 1


def reference_threshold(scale, cap, fw, bw):
    """The per-test threshold the pre-change loop rebuilt every time."""
    limit = fw if fw >= 0 else -fw
    other = bw if bw >= 0 else -bw
    if other < limit:
        limit = other
    if cap < limit:
        limit = cap
    return scale * limit


@pytest.mark.parametrize(
    "temperature,threshold",
    [(5.0, 0.05), (0.0, 0.05), (5.0, 0.0), (0.0, 0.0)],
    ids=["5K", "T0", "lambda0", "T0-lambda0"],
)
def test_vectorised_limits_match_scalar_formula(temperature, threshold):
    config = SimulationConfig(
        temperature=temperature, adaptive_threshold=threshold,
    )
    engine = MonteCarloEngine(
        build_set(vs=0.02, vd=-0.02), config
    )
    solver = engine.solver
    cap = solver._energy_cap
    assert (cap == math.inf) == (temperature == 0.0)
    kt = K_B * 5.0
    values = [0.0, -0.0, 1e-30, -1e-30, 0.3 * kt, -0.3 * kt, 2.0 * kt,
              -7.0 * kt, 4.0 * kt, 1e-19, -3e-20, 5e-310]
    fw = np.array([a for a in values for _ in values])
    bw = np.array([b for _ in values for b in values])
    limits = solver._limits(fw, bw)
    scale = threshold / E_CHARGE
    for lim, f, b in zip(limits, fw.tolist(), bw.tolist()):
        expected = reference_threshold(scale, cap, f, b)
        assert lim == expected
        # every testing factor meets the same verdict under both forms
        for probe in (0.0, -0.0, lim, -lim, math.nextafter(lim, 0.0),
                      math.nextafter(lim, math.inf), -math.nextafter(lim, 0.0)):
            assert (abs(probe) >= lim) == (abs(probe) >= expected)
