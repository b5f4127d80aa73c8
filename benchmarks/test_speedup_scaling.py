"""The >40x claim — how the adaptive advantage scales with size.

The paper attributes the speedup growth to "the ratio of the total
number of tunnel rate and node potential calculations solved for the
adaptive approach over ... the non-adaptive approach decreas[ing] as
the number of junctions increases".  This bench measures exactly that
ratio on a controlled family of circuits (parallel inverter chains, so
activity per event is constant while size grows) plus the resulting
wall-clock ratio.
"""

import numpy as np

from repro.analysis import format_table, measure_engine_run
from repro.core import MonteCarloEngine, SimulationConfig
from repro.logic import Gate, GateKind, LogicNetlist, map_to_circuit

from _harness import full_scale, run_once

CHAIN_COUNTS = (2, 8, 24, 64) if not full_scale() else (2, 8, 24, 64, 160)
CHAIN_LENGTH = 5  # gates per chain


def _chains_netlist(n_chains: int) -> LogicNetlist:
    gates = []
    outputs = []
    for c in range(n_chains):
        previous = f"in{c}"
        for i in range(CHAIN_LENGTH):
            net = f"c{c}n{i}"
            gates.append(Gate(f"c{c}g{i}", GateKind.INV, (previous,), net))
            previous = net
        outputs.append(previous)
    return LogicNetlist(
        f"chains{n_chains}", [f"in{c}" for c in range(n_chains)], outputs, gates
    )


def measure(n_chains: int):
    mapped = map_to_circuit(_chains_netlist(n_chains))
    vector = {n: False for n in mapped.netlist.inputs}
    events = 1500
    out = {"junctions": mapped.n_junctions}
    for solver in ("nonadaptive", "adaptive"):
        engine = MonteCarloEngine(
            mapped.circuit,
            SimulationConfig(temperature=mapped.params.temperature,
                             solver=solver, seed=3),
            initial_occupation=mapped.initial_occupation(vector),
        )
        engine.set_sources(mapped.input_voltages(vector))
        engine.run(max_jumps=200)
        start_evals = engine.solver.stats.sequential_rate_evaluations
        timed = measure_engine_run(engine, events)
        evals = engine.solver.stats.sequential_rate_evaluations - start_evals
        out[solver] = {
            "wall": timed.wall_seconds,
            "evals_per_event": evals / events,
        }
    return out


def test_speedup_scaling(benchmark):
    results = run_once(benchmark, lambda: [measure(n) for n in CHAIN_COUNTS])

    rows = []
    eval_ratios = []
    wall_ratios = []
    for res in results:
        ratio = (
            res["nonadaptive"]["evals_per_event"]
            / res["adaptive"]["evals_per_event"]
        )
        wall_ratio = res["nonadaptive"]["wall"] / res["adaptive"]["wall"]
        eval_ratios.append(ratio)
        wall_ratios.append(wall_ratio)
        rows.append([
            res["junctions"],
            f"{res['nonadaptive']['evals_per_event']:.0f}",
            f"{res['adaptive']['evals_per_event']:.1f}",
            f"{ratio:.0f}x",
            f"{wall_ratio:.2f}x",
        ])
    print()
    print(format_table(
        ["junctions", "rate evals/event (non-ad.)", "(adaptive)",
         "work ratio", "wall ratio"],
        rows,
        title="Adaptive work reduction vs circuit size",
    ))

    # (1) the work ratio grows monotonically with circuit size
    assert all(b > a for a, b in zip(eval_ratios, eval_ratios[1:]))

    # (2) adaptive work per event is roughly size-independent (local
    # updates), while the non-adaptive work is proportional to size
    adaptive_evals = [r["adaptive"]["evals_per_event"] for r in results]
    assert max(adaptive_evals) < 12 * min(adaptive_evals)
    nonadaptive_evals = [r["nonadaptive"]["evals_per_event"] for r in results]
    size = [r["junctions"] for r in results]
    growth = (nonadaptive_evals[-1] / nonadaptive_evals[0])
    assert growth > 0.5 * (size[-1] / size[0])

    # (3) wall-clock speedup on the largest configuration
    assert wall_ratios[-1] > 1.5
