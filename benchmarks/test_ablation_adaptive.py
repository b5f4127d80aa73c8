"""Ablation — the adaptive threshold lambda and the refresh period.

DESIGN.md calls out two design choices in Algorithm 1: the testing
threshold ``lambda`` (accuracy/speed trade-off) and the periodic full
refresh that bounds the accumulated error.  This bench quantifies both
on a mid-size benchmark:

* work per event falls as lambda grows (fewer junctions flagged);
* the dynamics bias (measured as the deviation of simulated time per
  event from the exact lambda = 0 run) grows with lambda;
* disabling refreshes entirely amplifies that bias, frequent refreshes
  push work back toward the non-adaptive cost.
"""

import numpy as np

from repro.analysis import format_table
from repro.core import MonteCarloEngine, SimulationConfig
from repro.logic import build_benchmark, find_step_stimulus

from _harness import run_once

LAMBDAS = (0.0, 0.02, 0.05, 0.2, 0.5)
REFRESH_INTERVALS = (100, 1000, 100_000)
EVENTS = 4000


def _run(mapped, stim, lam, refresh):
    config = SimulationConfig(
        temperature=mapped.params.temperature, solver="adaptive",
        adaptive_threshold=lam, full_refresh_interval=refresh, seed=17,
    )
    engine = MonteCarloEngine(
        mapped.circuit, config,
        initial_occupation=mapped.initial_occupation(stim.before),
    )
    engine.set_sources(mapped.input_voltages(stim.before))
    result = engine.run(max_jumps=EVENTS)
    stats = engine.solver.stats
    return {
        "time_per_event": engine.solver.time / stats.events,
        "evals_per_event": stats.sequential_rate_evaluations / stats.events,
        "refreshes": stats.full_refreshes,
    }


def _run_cap(mapped, stim, cap):
    config = SimulationConfig(
        temperature=mapped.params.temperature, solver="adaptive",
        adaptive_threshold=0.05, adaptive_thermal_cap=cap, seed=17,
    )
    engine = MonteCarloEngine(
        mapped.circuit, config,
        initial_occupation=mapped.initial_occupation(stim.before),
    )
    engine.set_sources(mapped.input_voltages(stim.before))
    engine.run(max_jumps=EVENTS)
    stats = engine.solver.stats
    return {
        "time_per_event": engine.solver.time / stats.events,
        "evals_per_event": stats.sequential_rate_evaluations / stats.events,
    }


def sweep():
    mapped = build_benchmark("74LS138")
    stim = find_step_stimulus(mapped.netlist, 0)
    lam_rows = {lam: _run(mapped, stim, lam, 1000) for lam in LAMBDAS}
    refresh_rows = {r: _run(mapped, stim, 0.05, r) for r in REFRESH_INTERVALS}
    cap_rows = {cap: _run_cap(mapped, stim, cap) for cap in (1.0, 4.0, 1e308)}
    return lam_rows, refresh_rows, cap_rows


def test_ablation_adaptive(benchmark):
    lam_rows, refresh_rows, cap_rows = run_once(benchmark, sweep)
    exact = lam_rows[0.0]["time_per_event"]

    table = [
        [
            lam,
            f"{row['evals_per_event']:.1f}",
            f"{100 * abs(row['time_per_event'] - exact) / exact:.1f}%",
        ]
        for lam, row in lam_rows.items()
    ]
    print()
    print(format_table(
        ["lambda", "rate evals/event", "clock deviation vs exact"],
        table, title="Ablation: adaptive threshold (74LS138, 4000 events)",
    ))
    print(format_table(
        ["refresh interval", "rate evals/event", "full refreshes"],
        [
            [interval, f"{row['evals_per_event']:.1f}", row["refreshes"]]
            for interval, row in refresh_rows.items()
        ],
        title="Ablation: periodic full refresh (lambda = 0.05)",
    ))

    print(format_table(
        ["thermal cap (kT)", "rate evals/event"],
        [
            ["inf" if cap > 1e300 else cap, f"{row['evals_per_event']:.1f}"]
            for cap, row in cap_rows.items()
        ],
        title="Ablation: thermal threshold cap (lambda = 0.05)",
    ))

    evals = [lam_rows[lam]["evals_per_event"] for lam in LAMBDAS]
    # (1) work decreases monotonically with lambda
    assert all(b <= a * 1.05 for a, b in zip(evals, evals[1:]))
    # (2) lambda = 0 floods the connected neighbourhood of every event:
    # orders of magnitude more work than the tuned threshold, within
    # reach of the non-adaptive cost (2 x 168 evals/event); the flood
    # stops only where perturbations are exactly zero
    assert evals[0] > 100.0
    # (3) the default lambda cuts the flooded (lambda = 0) work several
    # fold on this benchmark (the flood itself already stops at pinned
    # inputs, so it is smaller than the full non-adaptive cost)
    assert evals[0] / lam_rows[0.05]["evals_per_event"] > 4.0
    # (4) refreshing every 100 events costs visibly more work than
    # refreshing every 100k events
    assert (
        refresh_rows[100]["evals_per_event"]
        > refresh_rows[100_000]["evals_per_event"]
    )
