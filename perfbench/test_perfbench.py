"""Self-tests of the benchmark: determinism, non-vacuous checks, the
timed sweep loop being ``sweep_iv``, and the tracer's self time.

Run from the root of a checkout: ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import contextlib
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import workloads  # noqa: E402


def measured(name: str, seed: int, seconds: int = 1, around=None):
    workload = workloads.make_workload(name, seed, seconds)
    workload.setup()
    workloads.measure(workload, around)
    return workload


def identity(workload) -> tuple:
    return (
        workload.inputs(),
        {s: p.counters for s, p in workload.phases.items()},
        {s: p.event_hash for s, p in workload.phases.items()},
    )


def test_same_seed_same_inputs_counters_and_hash_on_the_set():
    first, again, other = (measured("set-iv", seed) for seed in (7, 7, 8))
    assert identity(first) == identity(again)
    assert first.inputs() != other.inputs()
    for solver in workloads.SOLVERS:
        assert first.phases[solver].event_hash != other.phases[solver].event_hash
        # J = 2: every counter is a structural constant of the budget
        assert first.phases[solver].counters == other.phases[solver].counters
    assert first.check().failed == 0


def test_same_seed_same_inputs_counters_and_hash_on_c1908():
    first, again, other = (measured("c1908", seed) for seed in (3, 3, 4))
    assert identity(first) == identity(again)
    assert first.inputs() != other.inputs()
    assert first.phases["adaptive"].counters != other.phases["adaptive"].counters
    for solver in workloads.SOLVERS:
        assert first.phases[solver].event_hash != other.phases[solver].event_hash
    check = first.check()
    assert check.failed == 0, check.failures
    assert check.attempted == 2 * (2 + len(first.mapped.netlist.outputs)) + 2


def sign_flip_in_nonadaptive(solver: str):
    from repro.gen.differential import seeded_bug

    if solver == "nonadaptive":
        return seeded_bug("sign-flip")
    return contextlib.nullcontext()


def test_seeded_sign_flip_in_the_nonadaptive_solver_fails_the_set_check():
    check = measured("set-iv", 7, around=sign_flip_in_nonadaptive).check()
    assert check.failed > 0
    assert all(f.startswith("nonadaptive") for f in check.failures)


def test_seeded_sign_flip_in_the_nonadaptive_solver_fails_the_c1908_check():
    check = measured("c1908", 3, around=sign_flip_in_nonadaptive).check()
    assert any("simulated time" in f for f in check.failures), check.failures


def test_timed_sweep_loop_reproduces_sweep_iv():
    from repro.core import SimulationConfig, sweep_iv

    workload = workloads.make_workload("set-iv", 5, 1)
    workload.setup()
    for k in range(workload.n_blocks):  # no warm-up, exactly as sweep_iv
        workload.block("adaptive", k)
    curve = sweep_iv(
        workload.circuit, workload.voltages,
        SimulationConfig(
            temperature=workload.temperature, solver="adaptive",
            seed=workload.seeds["adaptive"], event_hash=True,
        ),
        jumps_per_point=workload.jumps,
    )
    assert np.array_equal(curve.currents, workload.currents["adaptive"])


def test_tracer_self_time_subtracts_child_spans_and_uninstall_restores():
    import tracing

    class Toy:
        def outer(self):
            self.inner()
            self.inner()

        def inner(self):
            pass

    original = Toy.inner
    tracer = tracing.Tracer()
    tracer.wrap(Toy, "outer", "toy.outer", fine=True)
    tracer.wrap(Toy, "inner", "toy.inner", fine=True)
    Toy().outer()  # set-up phase: per-call spans are not recorded
    with tracer.timed_phase("work"):
        Toy().outer()
    tracer.uninstall()
    assert Toy.inner is original
    spans = tracer.arrays()
    table = tracing.summarize(spans, tracer.names, tracer.phase_names)
    assert table["setup"] == {}
    assert {k: v[1] for k, v in table["work"].items()} == {"toy.outer": 1, "toy.inner": 2}
    outer = int(np.flatnonzero(spans["parent"] == -1)[0])
    span_total = spans["end"][outer] - spans["start"][outer]
    own = tracing.self_times(spans)
    assert abs(own.sum() - span_total) < 1e-12
