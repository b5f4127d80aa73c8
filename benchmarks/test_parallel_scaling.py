"""Parallel sweep scaling: wall-clock versus worker count.

The ``repro.parallel`` layer promises two things: (1) the results of a
sharded sweep are a function of the shard layout alone — ``jobs=4``
reproduces ``jobs=1`` bit for bit — and (2) on a multi-core machine the
wall-clock drops as workers are added.  This bench measures both on a
Fig. 5-style (bias, gate) current map, prints the ``{jobs, seconds,
speedup}`` rows, and asserts the speedup only where the hardware can
deliver one (a single-CPU container can verify identity but not
parallelism).
"""

import os

import numpy as np

from repro.analysis import format_table
from repro.circuit import build_set
from repro.core import SimulationConfig, sweep_map
from repro.telemetry.clock import Stopwatch

from _harness import full_scale, run_once

JOBS = (1, 2, 4)


def _grid():
    if full_scale():
        return np.linspace(-0.04, 0.04, 33), np.linspace(0.0, 0.08, 16), 4000
    return np.linspace(-0.04, 0.04, 17), np.linspace(0.0, 0.08, 8), 2000


def run_measurements():
    circuit = build_set()
    config = SimulationConfig(temperature=5.0, solver="adaptive", seed=11)
    biases, gates, jumps = _grid()
    rows = []
    maps = {}
    for jobs in JOBS:
        watch = Stopwatch()
        maps[jobs] = sweep_map(
            circuit, biases, gates, config, jumps_per_point=jumps, jobs=jobs,
        )
        seconds = watch.elapsed()
        rows.append({
            "jobs": jobs,
            "seconds": seconds,
            "speedup": None,  # filled against the serial row below
        })
    serial = rows[0]["seconds"]
    for row in rows:
        row["speedup"] = serial / row["seconds"]
    return rows, maps


def test_parallel_scaling(benchmark):
    rows, maps = run_once(benchmark, run_measurements)

    print()
    print(format_table(
        ["jobs", "seconds", "speedup"],
        [[r["jobs"], f"{r['seconds']:.2f}", f"{r['speedup']:.2f}x"]
         for r in rows],
        title=f"sweep_map scaling ({os.cpu_count()} CPUs available)",
    ))

    # (1) the headline guarantee: worker count never changes the numbers
    serial = maps[JOBS[0]]
    for jobs in JOBS[1:]:
        assert np.array_equal(serial.currents, maps[jobs].currents)
        assert serial.stats.as_dict() == maps[jobs].stats.as_dict()

    # (2) scaling, where the hardware allows it: with >= 4 cores the
    # 4-worker map must beat serial; a single-CPU box can only pay the
    # pool overhead, so there identity is the whole test
    cpus = os.cpu_count() or 1
    if cpus >= 4:
        four = next(r for r in rows if r["jobs"] == 4)
        assert four["speedup"] > 1.2, (
            f"jobs=4 gave {four['speedup']:.2f}x on {cpus} CPUs"
        )
