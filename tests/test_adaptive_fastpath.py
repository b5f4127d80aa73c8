"""The adaptive solver's C event kernel against the Python loops.

On normal-state circuits the events run in the C kernel of
``repro.core.native`` (``fused_step.c``), many per ``repro_run`` call.
``ReferenceAdaptiveSolver`` runs the Python path, forced there by
replacing the kernel loader, with the earlier loops on top: the
threshold rebuilt from the stored free energies on every test, and one
root-path repair per flagged junction.
Both must realise the same events and leave the same state, bit for
bit, and the fast engine must have run its events through the kernel.
"""

import ctypes
import math
import os
import subprocess
import sys
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest

from repro.circuit import (
    CircuitBuilder,
    Electrostatics,
    JunctionTable,
    Superconductor,
    build_set,
)
from repro.circuit.electrostatics import DENSE_LIMIT_DEFAULT
from repro.constants import E_CHARGE, K_B, MEV
from repro.core import MonteCarloEngine, SimulationConfig, Sine, run_with_waveforms
from repro.core import native
from repro.core.adaptive import AdaptiveSolver
from repro.errors import FrozenCircuitError
from repro.logic import build_benchmark, find_step_stimulus

SRC = Path(__file__).resolve().parents[1] / "src"


def repair_leaf(tree, j, pair_rate):
    """Single-leaf tree update: set leaf ``j`` and repair its root path."""
    nodes = tree._tree
    i = tree._size + j
    nodes[i] = pair_rate
    i //= 2
    while i:
        nodes[i] = nodes[2 * i] + nodes[2 * i + 1]
        i //= 2


def python_loader(monkeypatch):
    """Make the kernel loader report a failed build, as on a machine
    without a C compiler: solvers built meanwhile run the Python path."""
    monkeypatch.setattr(
        native, "load", lambda: native.Native(None, None, None, "disabled")
    )


class ReferenceAdaptiveSolver(AdaptiveSolver):
    """Algorithm 1's scalar path as written before the stored limits."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        assert self._kernel is None
        self.repaired_leaves = 0
        if self._tree is not None:
            # the numpy recompute's batch goes through per-leaf repairs too
            def update(leaves, pair_rates):
                for j, pair_rate in zip(leaves, pair_rates):
                    repair_leaf(self._tree, j, pair_rate)
                    self.repaired_leaves += 1

            self._tree.update = update

    def _recompute_scalar(self, indices):
        if self.model.superconducting:
            self._recompute_numpy(indices)
            return
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

    def _recompute_numpy(self, indices):
        """A superconducting batch as numpy computed it before the scalar
        table lookup: numpy free energies, and each rate from an array
        lookup of the junction's table."""
        idx = np.asarray(indices, dtype=np.intp)
        v, vext = self._v, self.vext
        phi_a = np.where(
            self._a_is_island[idx],
            v[np.minimum(self._a_index[idx], len(v) - 1)],
            vext[np.minimum(self._a_index[idx], len(vext) - 1)],
        )
        phi_b = np.where(
            self._b_is_island[idx],
            v[np.minimum(self._b_index[idx], len(v) - 1)],
            vext[np.minimum(self._b_index[idx], len(vext) - 1)],
        )
        drop = phi_b - phi_a
        self_energy = 0.5 * E_CHARGE * E_CHARGE * self.table.charging[idx]
        dw_fw = -E_CHARGE * drop + self_energy
        dw_bw = +E_CHARGE * drop + self_energy
        tables = self.model._qp_tables
        tree = self._tree
        for pos, j in enumerate(indices):
            fw = tables[j](np.array([dw_fw[pos]]))[0]
            bw = tables[j](np.array([dw_bw[pos]]))[0]
            self._dw_fw[j] = dw_fw[pos]
            self._dw_bw[j] = dw_bw[pos]
            self._seq_fw[j] = fw
            self._seq_bw[j] = bw
            self._b0[j] = 0.0
            if tree is not None:
                repair_leaf(tree, j, fw + bw)
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


def engine_pair(monkeypatch, circuit, config, occupation=None):
    """Two engines on one circuit: the fast path and the reference."""
    fast = MonteCarloEngine(circuit, config, initial_occupation=occupation)
    with monkeypatch.context() as patch:
        python_loader(patch)
        ref = MonteCarloEngine(circuit, config, initial_occupation=occupation)
        ref.solver = ReferenceAdaptiveSolver(
            circuit, ref.electrostatics, ref.junction_table, ref.model,
            ref.config, ref.rng, occupation,
        )
    return fast, ref


class KernelCall(NamedTuple):
    """One ``repro_run`` call: the events it realised, whether it had a
    ``step(deadline)`` deadline, and why it stopped."""

    events: int
    deadline: bool
    status: int


def count_kernel_steps(solver) -> list:
    """Record every ``repro_run`` call of ``solver`` as a
    :class:`KernelCall`."""
    assert solver._kernel is not None, native.load().describe()
    calls = []
    run = solver._native_run

    def counted(*args):
        done = run(*args)
        calls.append(KernelCall(done, bool(args[5]), solver._kernel.status))
        return done

    solver._native_run = counted
    return calls


def kernel_events(calls) -> int:
    """Events realised through ``repro_run`` over ``calls``."""
    return sum(call.events for call in calls)


def same_bits(a, b) -> bool:
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def assert_same_state(fast, ref):
    assert fast.event_hash() == ref.event_hash()
    f, r = fast.solver, ref.solver
    assert f.time.hex() == r.time.hex()
    assert np.array_equal(f.occupation, r.occupation)
    assert np.array_equal(f.flux, r.flux)
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
def test_set_matches_reference(
    monkeypatch, superconducting, temperature, threshold
):
    """The superconducting SET runs in the kernel and draws without the
    sampling tree; its quasi-particle table lookups in C must give the
    reference's numpy array lookups bit for bit."""
    config = SimulationConfig(
        temperature=temperature, seed=11, event_hash=True,
        full_refresh_interval=1500,
    )
    if threshold is not None:
        config = config.replace(adaptive_threshold=threshold)
    superconductor = (
        Superconductor(delta0=0.2 * MEV, tc=1.2) if superconducting else None
    )
    fast, ref = engine_pair(
        monkeypatch, build_set(superconductor=superconductor), config
    )
    kernel_steps = count_kernel_steps(fast.solver)
    vectors = (
        {"vs": 0.03, "vd": -0.03, "vg": 0.004},
        {"vs": 0.05, "vd": -0.05, "vg": -0.002},
    )
    run_toggled(fast, ref, vectors, blocks=8, events=400)
    assert fast.solver.stats.events == 3200
    assert kernel_events(kernel_steps) == 3200
    assert fast.solver.stats.full_refreshes > 1
    assert (ref.solver.repaired_leaves > 0) == (not superconducting)


def run_74ls280(monkeypatch, threshold, events):
    """Toggle 74LS280's inputs on the kernel and the reference; returns
    the fast solver's counts of vectorised walks and of the kernel's
    wide recomputes with numpy's ``expm1`` (more than
    ``native.SCALAR_BATCH`` junctions, or from a vectorised walk)."""
    mapped = build_benchmark("74LS280")
    stimulus = find_step_stimulus(mapped.netlist, 0)
    vectors = (
        mapped.input_voltages(stimulus.after),
        mapped.input_voltages(stimulus.before),
    )
    config = SimulationConfig(
        temperature=mapped.params.temperature, seed=3, event_hash=True,
        adaptive_threshold=threshold,
    )
    fast, ref = engine_pair(
        monkeypatch, mapped.circuit, config,
        mapped.initial_occupation(stimulus.before),
    )
    seen = {"vector": 0, "wide": 0}
    solver = fast.solver
    kernel_steps = count_kernel_steps(solver)
    vector_walk = solver._adaptive_update_vector
    recompute_wide = solver._recompute_wide

    def counting_vector(*args):
        seen["vector"] += 1
        return vector_walk(*args)

    def counting_wide(n):
        seen["wide"] += 1
        return recompute_wide(n)

    solver._adaptive_update_vector = counting_vector
    solver._recompute_wide = counting_wide
    run_toggled(fast, ref, vectors, blocks=6, events=events)
    assert solver.stats.events == 6 * events
    assert kernel_events(kernel_steps) == 6 * events
    return seen


def test_74ls280_matches_reference(monkeypatch):
    seen = run_74ls280(monkeypatch, SimulationConfig().adaptive_threshold, 500)
    assert seen["vector"] >= 6
    assert seen["wide"] >= 1


def test_74ls280_wide_flags_match_reference(monkeypatch):
    """At lambda = 0 every tested junction is flagged, so each event
    floods its component: more than 64 junctions, whose rates the
    kernel computes around one numpy ``expm1`` call, as the Python
    path's numpy recompute does, before it stores the limits and
    repairs the tree."""
    seen = run_74ls280(monkeypatch, 0.0, 150)
    assert seen["wide"] - seen["vector"] > 100


def test_scalar_batch_is_shared(monkeypatch):
    """The kernel and the Python path split flagged batches between
    libm's and numpy's ``expm1`` at one width, ``native.SCALAR_BATCH``:
    lowered, both send the same batches to numpy, among them batches
    the default width keeps scalar."""
    limit = 3
    monkeypatch.setattr(native, "SCALAR_BATCH", limit)
    mapped = build_benchmark("74LS280")
    stimulus = find_step_stimulus(mapped.netlist, 0)
    config = SimulationConfig(
        temperature=mapped.params.temperature, seed=4, event_hash=True,
    )
    fast, ref = engine_pair(
        monkeypatch, mapped.circuit, config,
        mapped.initial_occupation(stimulus.before),
    )
    assert fast.solver._kernel.scalar_batch == limit
    widths = {"fast": [], "ref": []}
    recompute_wide = fast.solver._recompute_wide
    recompute_rates = ref.solver._recompute_rates

    def fast_wide(n):
        widths["fast"].append(n)
        return recompute_wide(n)

    def ref_rates(idx):
        widths["ref"].append(len(idx))
        return recompute_rates(idx)

    fast.solver._recompute_wide = fast_wide
    ref.solver._recompute_rates = ref_rates
    for engine in (fast, ref):
        engine.run(max_jumps=1500)
    assert_same_state(fast, ref)
    assert widths["fast"] == widths["ref"]
    assert min(widths["fast"]) > limit
    assert min(widths["fast"]) <= 64


def test_kernel_records_match_hash_event():
    """Each digest record the kernel writes is the bytes ``_hash_event``
    writes for the event it returns, over every junction of 74LS280
    (island to island and island to source) an event crosses, in both
    directions."""
    mapped = build_benchmark("74LS280")
    stimulus = find_step_stimulus(mapped.netlist, 0)
    config = SimulationConfig(
        temperature=mapped.params.temperature, event_hash=True, seed=5,
    )
    solver = MonteCarloEngine(
        mapped.circuit, config,
        initial_occupation=mapped.initial_occupation(stimulus.before),
    ).solver
    assert solver._kernel is not None, native.load().describe()

    class Recorder:
        def update(self, data):
            self.data = bytes(data)

    solver._event_digest = digest = Recorder()
    seen = set()
    for _ in range(3000):
        event = solver.step()
        record = digest.data
        solver._hash_event(event, solver._kernel.dt)
        assert record == digest.data
        seen.add((event.junction, event.direction))
    kinds = {
        (solver._a_isl_list[j], solver._b_isl_list[j]) for j, _ in seen
    }
    assert {(True, True), (False, True)} <= kinds
    assert {d for _, d in seen} == {1, -1}


def free_energy(solver, i) -> float:
    """Junction ``i``'s forward free-energy change, formed as the
    recomputes form it."""
    a_isl, a_idx = solver._a_isl_list[i], solver._a_idx_list[i]
    b_isl, b_idx = solver._b_isl_list[i], solver._b_idx_list[i]
    phi_a = float(solver._v[a_idx] if a_isl else solver.vext[a_idx])
    phi_b = float(solver._v[b_idx] if b_isl else solver.vext[b_idx])
    return -E_CHARGE * (phi_b - phi_a) + solver._charging_list[i]


def place(solver, i, kt, target) -> float:
    """Bisect the potential of junction ``i``'s ``node_b`` island until
    the forward ``x = dW / kT`` is as close to ``target`` as it gets;
    returns that ``x``."""
    v = solver._v
    island = solver._b_idx_list[i]

    def x(value):
        v[island] = value
        return free_energy(solver, i) / kt

    # x falls as the island's potential rises
    lo, hi = float(v[island]) - 1.0, float(v[island]) + 1.0
    while (mid := 0.5 * (lo + hi)) not in (lo, hi):
        if x(mid) > target:
            lo = mid
        else:
            hi = mid
    return x(min((lo, hi), key=lambda value: abs(x(value) - target)))


def exact_temperature(dw, target) -> float:
    """A temperature at which ``dw / (K_B * T)`` is exactly ``target``."""
    t = dw / target / K_B
    for _ in range(200):
        x = dw / (K_B * t)
        if x == target:
            return t
        t = math.nextafter(t, math.inf if abs(x) > abs(target) else 0.0)
    raise AssertionError(f"no temperature puts {dw!r} on {target!r}")


@pytest.mark.parametrize("thermal", [True, False], ids=["T>0", "T0"])
def test_wide_batch_matches_numpy_recompute(monkeypatch, thermal):
    """``repro_prepare``, one numpy ``expm1`` and ``repro_finish`` leave
    the free energies, rates, limits, testing factors and tree nodes
    ``_recompute_rates`` and the Python tail leave, bit for bit, on
    random batches of more than ``native.SCALAR_BATCH`` junctions.  At
    T > 0 the batches hold junctions whose ``x = dW / kT`` sits exactly
    on the branch edges of ``bose_weight``: +-1e-12 and 500, and one
    above 500."""
    mapped = build_benchmark("74LS280")
    stimulus = find_step_stimulus(mapped.netlist, 0)
    occupation = mapped.initial_occupation(stimulus.before)
    rng = np.random.default_rng(21)

    def solvers(temperature):
        config = SimulationConfig(temperature=temperature)
        fast = MonteCarloEngine(
            mapped.circuit, config, initial_occupation=occupation
        ).solver
        with monkeypatch.context() as patch:
            python_loader(patch)
            ref = MonteCarloEngine(
                mapped.circuit, config, initial_occupation=occupation
            ).solver
        assert fast._kernel is not None, native.load().describe()
        assert ref._kernel is None
        return fast, ref

    fast, ref = solvers(mapped.params.temperature if thermal else 0.0)
    v = fast._v
    v += rng.normal(scale=5e-3, size=v.size)
    edges = {}
    if thermal:
        # junctions whose endpoints share no island with another's
        candidates, used = [], set()
        for i in rng.permutation(fast.n_junctions).tolist():
            islands = {fast._b_idx_list[i]}
            if fast._a_isl_list[i]:
                islands.add(fast._a_idx_list[i])
            if fast._b_isl_list[i] and not islands & used:
                candidates.append(i)
                used |= islands
        first = candidates.pop()
        place(fast, first, K_B * mapped.params.temperature, 1e-12)
        temperature = exact_temperature(free_energy(fast, first), 1e-12)
        placed = v.copy()
        fast, ref = solvers(temperature)
        fast._v[:] = placed
        kt = K_B * temperature
        edges[1e-12] = first
        for target in (-1e-12, 500.0, 700.0):
            while candidates:
                i = candidates.pop()
                x = place(fast, i, kt, target)
                if x == target:
                    edges[target] = i
                    break
        assert sorted(edges) == [-1e-12, 1e-12, 500.0, 700.0]
        for target, i in edges.items():
            assert free_energy(fast, i) / kt == target
    ref._v[:] = fast._v
    b0 = rng.normal(size=fast.n_junctions)
    fast._b0[:] = ref._b0[:] = b0
    for trial in range(6):
        others = [i for i in range(fast.n_junctions) if i not in edges.values()]
        size = int(rng.integers(native.SCALAR_BATCH + 1, fast.n_junctions // 2))
        batch = rng.permutation(
            list(edges.values()) + rng.choice(others, size, replace=False).tolist()
        )
        indices = batch if trial % 2 else batch.tolist()
        for solver in (fast, ref):
            solver._recompute_junctions(indices)
        for name in ("_dw_fw", "_dw_bw", "_seq_fw", "_seq_bw", "_limit", "_b0"):
            assert same_bits(getattr(fast, name), getattr(ref, name)), name
        assert same_bits(fast._tree.nodes, ref._tree.nodes)
        assert fast.stats == ref.stats
    # only x > 500 gives a zero rate and only |x| < 1e-12 gives kT's:
    # the edges themselves take expm1
    for target, i in edges.items():
        rate = fast._seq_fw[i]
        assert (rate == 0.0) == (target > 500.0), target
        assert rate != kt / (E_CHARGE * E_CHARGE * fast.table.resistance[i])


def two_sets():
    """Two independent SETs in one circuit: islands 0 and 1, one per
    component."""
    b = CircuitBuilder()
    for name in ("a", "b"):
        b.add_junction(f"j{name}1", f"s{name}", f"i{name}", 1e6, 1e-18)
        b.add_junction(f"j{name}2", f"d{name}", f"i{name}", 1e6, 1e-18)
        b.add_capacitor(f"c{name}", f"g{name}", f"i{name}", 3e-18)
    for name, vs, vg in (("a", 0.03, 0.0), ("b", 0.05, 0.002)):
        b.add_voltage_source(f"vs{name}", f"s{name}", vs)
        b.add_voltage_source(f"vd{name}", f"d{name}", -vs)
        b.add_voltage_source(f"vg{name}", f"g{name}", vg)
    return b.build()


def interleaved_arrays(junctions=4):
    """Two junction arrays whose islands alternate in index order: the
    islands of ``a`` are 0, 2, 4 and those of ``b`` 1, 3, 5, so each
    component's span covers islands of the other."""
    b = CircuitBuilder()
    for k in range(junctions):
        for name in ("a", "b"):
            left = f"l{name}" if k == 0 else f"{name}{k}"
            right = f"r{name}" if k == junctions - 1 else f"{name}{k + 1}"
            b.add_junction(f"j{name}{k}", left, right, 1e6, 1e-18)
    for k in range(1, junctions):
        for name in ("a", "b"):
            b.add_capacitor(f"c{name}{k}", f"g{name}", f"{name}{k}", 2e-18)
    for name, bias in (("a", 0.3), ("b", 0.25)):
        b.add_voltage_source(f"vl{name}", f"l{name}", bias / 2)
        b.add_voltage_source(f"vr{name}", f"r{name}", -bias / 2)
        b.add_voltage_source(f"vg{name}", f"g{name}", 0.0)
    return b.build()


MULTI_COMPONENT = {
    "two-sets": (two_sets, (
        {"vsa": 0.03, "vda": -0.03, "vga": 0.004,
         "vsb": 0.05, "vdb": -0.05, "vgb": -0.002},
        {"vsa": 0.05, "vda": -0.05, "vga": -0.002,
         "vsb": 0.03, "vdb": -0.03, "vgb": 0.004},
    )),
    "interleaved": (interleaved_arrays, (
        {"vla": 0.15, "vra": -0.15, "vga": 0.01,
         "vlb": 0.125, "vrb": -0.125, "vgb": 0.0},
        {"vla": 0.2, "vra": -0.2, "vga": 0.0,
         "vlb": 0.1, "vrb": -0.1, "vgb": 0.02},
    )),
}


@pytest.mark.parametrize("backend", ["dense", "sparse"])
@pytest.mark.parametrize("case", sorted(MULTI_COMPONENT))
def test_multi_component_matches_reference(monkeypatch, case, backend):
    """Each event's potential update stays in its component's span, on
    the kernel and on the Python path alike, and the potentials it
    leaves are those of a fresh solve."""
    build, vectors = MULTI_COMPONENT[case]
    circuit = build()
    stat = Electrostatics(
        circuit, dense_limit=DENSE_LIMIT_DEFAULT if backend == "dense" else 0
    )
    assert stat.is_dense == (backend == "dense")
    # every engine on the circuit takes this pair (prepared_electrostatics)
    object.__setattr__(
        circuit, "_electrostatics_cache", (stat, JunctionTable(circuit, stat))
    )
    assert len(stat.component_sizes) == 2
    if case == "interleaved":
        assert [stat.component_span(i) for i in range(6)] == [
            (0, 5), (1, 6), (0, 5), (1, 6), (0, 5), (1, 6),
        ]
    config = SimulationConfig(
        temperature=5.0, seed=13, event_hash=True, full_refresh_interval=700,
    )
    fast, ref = engine_pair(monkeypatch, circuit, config)
    assert fast.electrostatics is stat and ref.electrostatics is stat
    kernel_steps = count_kernel_steps(fast.solver)
    run_toggled(fast, ref, vectors, blocks=4, events=500)
    assert kernel_events(kernel_steps) == fast.solver.stats.events == 2000
    # both components conducted
    moved = np.abs(fast.solver.flux) > 0
    names = [j.name for j in circuit.junctions]
    assert {name[1] for name, m in zip(names, moved) if m} == {"a", "b"}
    for engine in (fast, ref):
        solver = engine.solver
        fresh = stat.potentials(solver.occupation, solver.vext)
        assert np.allclose(solver.potentials(), fresh, rtol=0.0, atol=1e-9)


def test_ac_drive_with_deadlines_matches_reference(monkeypatch):
    """Waveform boundaries discard the draws that overshoot them: the
    kernel makes the same ``time + dt > deadline`` comparison."""
    config = SimulationConfig(temperature=5.0, seed=5, event_hash=True)
    fast, ref = engine_pair(monkeypatch, build_set(vd=-0.03), config)
    kernel_steps = count_kernel_steps(fast.solver)
    drive = {"vs": Sine(amplitude=0.04, frequency=2e8), "vg": Sine(0.01, 1e8)}
    results = [
        run_with_waveforms(engine, drive, duration=2e-8, time_step=2e-10)
        for engine in (fast, ref)
    ]
    assert results[0] == results[1]
    assert results[0].discarded_boundaries > 50
    assert results[0].events > 1000
    # one call per step(deadline): an event or a discarded draw
    assert all(call.deadline for call in kernel_steps)
    assert len(kernel_steps) == (
        results[0].events + results[0].discarded_boundaries
    )
    assert kernel_events(kernel_steps) == results[0].events
    assert_same_state(fast, ref)


def test_frozen_circuit_matches_reference(monkeypatch):
    """At T = 0 with both leads at 1 V the island charges up and then
    freezes: both paths raise at the same event, with the same stream."""
    config = SimulationConfig(temperature=0.0, seed=1, event_hash=True)
    fast, ref = engine_pair(monkeypatch, build_set(vs=1.0, vd=1.0), config)
    kernel_steps = count_kernel_steps(fast.solver)
    for engine in (fast, ref):
        with pytest.raises(FrozenCircuitError):
            engine.run(max_jumps=1000)
    assert 0 < fast.solver.stats.events == ref.solver.stats.events
    assert kernel_events(kernel_steps) == fast.solver.stats.events
    assert kernel_steps[-1].status == native.STEP_FROZEN
    assert_same_state(fast, ref)


def test_kernel_buffers_stay_in_place():
    """The kernel holds raw addresses: full refreshes, retargets and a
    replaced generator leave the solver's buffers in place, the
    occupation and flux the kernel commits events to included."""
    config = SimulationConfig(
        temperature=5.0, seed=2, full_refresh_interval=50,
    )
    engine = MonteCarloEngine(build_set(vs=0.03, vd=-0.03), config)
    solver = engine.solver
    assert solver._kernel is not None, native.load().describe()
    names = ("_v", "vext", "_dw_fw", "_dw_bw", "_seq_fw", "_seq_bw",
             "_b0", "_limit", "_flagged", "occupation", "flux")

    def addresses():
        found = {name: getattr(solver, name).ctypes.data for name in names}
        found["tree"] = solver._tree.nodes.ctypes.data
        return found

    before = addresses()
    engine.run(max_jumps=120)
    assert solver.stats.full_refreshes >= 3
    engine.set_sources({"vs": 0.05, "vd": -0.05, "vg": 0.003})
    engine.run(max_jumps=10)
    solver.rng = np.random.default_rng(6)
    engine.run(max_jumps=60)
    assert addresses() == before
    assert np.abs(solver.flux).sum() > 0
    for field, name in (("v", "_v"), ("vext", "vext"), ("b0", "_b0"),
                        ("limit", "_limit"), ("tree", "tree"),
                        ("occupation", "occupation"), ("flux", "flux")):
        pointer = getattr(solver._kernel, field)
        assert ctypes.cast(pointer, ctypes.c_void_p).value == before[name]


def test_frozen_start_then_kernel_events_match_reference(monkeypatch):
    """At T = 0 inside the blockade the first step finds every rate zero
    and leaves the frozen draw to Python, which advances to the deadline;
    once the drive opens the blockade the kernel commits the events.
    Occupation, flux and the event hash match the Python path, and the
    flux is exactly what the returned events carry: none is applied
    twice."""
    config = SimulationConfig(temperature=0.0, seed=9, event_hash=True)
    fast, ref = engine_pair(monkeypatch, build_set(vs=0.0, vd=0.0), config)
    solver = fast.solver
    calls = count_kernel_steps(solver)
    fallback = solver._frozen_draw
    fallbacks = []

    def counted_fallback(deadline=None):
        fallbacks.append(deadline)
        return fallback(deadline)

    solver._frozen_draw = counted_fallback
    events = []
    solver_step = solver.step

    def recorded_step(deadline=None):
        event = solver_step(deadline)
        if event is not None:
            events.append(event)
        return event

    solver.step = recorded_step
    drive = {"vs": Sine(amplitude=0.08, frequency=2e8),
             "vd": Sine(amplitude=-0.08, frequency=2e8)}
    results = [
        run_with_waveforms(engine, drive, duration=1e-8, time_step=2e-10)
        for engine in (fast, ref)
    ]
    assert results[0] == results[1]
    statuses = [call.status for call in calls]
    assert statuses[0] == native.STEP_FROZEN and fallbacks[0] is not None
    assert kernel_events(calls) == len(events) > 100
    assert len(fallbacks) == statuses.count(native.STEP_FROZEN)
    assert_same_state(fast, ref)
    flux = np.zeros_like(solver.flux)
    for event in events:
        flux[event.junction] += event.direction
    assert np.array_equal(solver.flux, flux)
    # the SET's one island gains what junction 0 brings in and junction
    # 1 takes out (both run node_a = lead -> node_b = island)
    assert solver.occupation.tolist() == [int(flux[0] + flux[1])]


def test_replaced_generator_feeds_the_kernel():
    """Assigning ``solver.rng`` points the kernel at the new stream."""
    hashes = []
    for seed in (8, 9):
        config = SimulationConfig(temperature=5.0, seed=seed, event_hash=True)
        engine = MonteCarloEngine(build_set(vs=0.03, vd=-0.03), config)
        engine.solver.rng = np.random.default_rng(8)
        engine.run(max_jumps=500)
        hashes.append(engine.event_hash())
    assert hashes[0] == hashes[1]


def run_hash(env: dict) -> tuple[str, str]:
    """Which step ran, and the event hash, of a short SET run in a
    fresh interpreter."""
    code = (
        "from repro.circuit import build_set\n"
        "from repro.core import MonteCarloEngine, SimulationConfig, native\n"
        "engine = MonteCarloEngine(build_set(vs=0.03, vd=-0.03), "
        "SimulationConfig(temperature=5.0, seed=4, event_hash=True))\n"
        "engine.run(max_jumps=2000)\n"
        "print(native.load().describe())\n"
        "print(engine.event_hash())\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, check=True,
        capture_output=True, text=True, timeout=300,
    ).stdout.split("\n")
    return out[0], out[1]


def test_concurrent_cold_builds_both_load(tmp_path):
    """Two processes compiling into one empty cache both load a whole
    library (each compiles to a temporary file and renames it)."""
    env = dict(os.environ, REPRO_CACHE_DIR=str(tmp_path), PYTHONPATH=str(SRC))
    code = (
        "from repro.core import native\n"
        "print(native.load().describe())\n"
    )
    procs = [
        subprocess.Popen(
            [sys.executable, "-c", code], env=env,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        for _ in range(2)
    ]
    outputs = [proc.communicate(timeout=300) for proc in procs]
    for out, err in outputs:
        assert out.startswith("native ("), out + err
    libraries = list((tmp_path / "native").iterdir())
    assert [p.suffix for p in libraries] == [".so"]


def test_missing_compiler_falls_back_to_python(tmp_path, monkeypatch):
    """Without a compiler the solver runs the Python path, and the
    event stream is the kernel's."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    monkeypatch.setattr(native, "compiler", lambda: None)
    native.load.cache_clear()
    try:
        fallback = native.load()
        assert fallback.run is None
        assert "no C compiler" in fallback.describe()
        config = SimulationConfig(temperature=5.0, seed=4, event_hash=True)
        engine = MonteCarloEngine(build_set(vs=0.03, vd=-0.03), config)
        assert engine.solver._kernel is None
        engine.run(max_jumps=2000)
    finally:
        native.load.cache_clear()
    assert not (tmp_path / "native").exists()
    env = dict(os.environ, PYTHONPATH=str(SRC))
    described, kernel_hash = run_hash(env)
    assert described.startswith("native ("), described
    assert engine.event_hash() == kernel_hash


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
