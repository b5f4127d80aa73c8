"""The three benchmark workloads, each run in a fresh interpreter.

Usage (normally spawned by ``run.py``; ``src/`` must be on
``PYTHONPATH``)::

    python3 perfbench/workloads.py MODE WORKLOAD SEED SECONDS T_LAUNCH

``MODE`` is ``setup`` (stop once both engines are prepared), ``run``
(set-up, both timed phases, correctness check) or ``trace`` (``run``
with the span tracer of :mod:`tracing` installed).  ``T_LAUNCH`` is the
parent's ``time.monotonic()`` just before it started this interpreter,
so set-up time covers interpreter start and ``import repro`` too.  The
last line of standard output is one JSON record.

Only the public API is driven: ``repro.circuit`` / ``repro.core`` /
``repro.logic`` / ``repro.physics`` build and run the circuits,
``repro.core.sweep_master_iv`` (the master equation) is the reference,
``repro.gen.differential.Tolerance`` sets the comparison budget and
``repro.dsan.runtime.fold_hashes`` folds the two solvers' event hashes.
"""

from __future__ import annotations

import contextlib
import dataclasses
import gc
import hashlib
import json
import os
import resource
import sys
import time

import reference

WORKLOADS = ("set-iv", "sset-iv", "c1908")
SOLVERS = ("adaptive", "nonadaptive")

#: sweep grid shared by both device workloads: blockade and conduction
SWEEP_POINTS = 33
SWEEP_SPAN_V = 0.04
#: tunnel events per sweep point per second of ``--seconds``: sized so
#: the two timed phases together take about ``--seconds`` on a 2-core
#: x86 host (SET ~30k / ~12k events/s, SSET ~5k / ~6k events/s)
JUMPS_PER_POINT_PER_SECOND = {"set-iv": 250, "sset-iv": 75}
#: untimed events before each timed phase (first sweep point / held vector)
WARMUP_EVENTS = {"set-iv": 2000, "sset-iv": 500, "c1908": 500}

#: c1908: events per solver phase per second of ``--seconds`` (c1908
#: runs ~3k adaptive and ~1k non-adaptive events/s) and the toggle
#: interval; the phase is a whole, even number of toggle intervals so
#: it ends holding the ``before`` vector
C1908_EVENTS_PER_SECOND = 700
C1908_TOGGLE_EVENTS = 1000
#: stimulus search seed, as in benchmarks/test_fig6_performance.py.  The
#: per-event adaptive work depends on the vector pair (63-75 sequential
#: rate evaluations per event across eight random pairs), so a seed-drawn
#: pair would turn input variety into run-to-run spread; the workload
#: seed drives the Monte Carlo streams instead
C1908_STIMULUS_SEED = 0
#: NodeVoltageRecorder sampling interval, as in ``measure_propagation_delay``
RECORDER_INTERVAL = 5
#: largest |incremental - fresh| island potential accepted (volts)
POTENTIAL_TOLERANCE_V = 1e-9
#: c1908: largest factor by which the two solvers' simulated time over
#: their timed phases may differ.  Both sample the same Markov chain
#: from the same state for the same number of events, so the times agree
#: in distribution: seeds 301-310 at 20 s gave ratios of 0.85-1.10, and
#: 0.88-1.14 over the first two blocks alone (the phase at 1 s).  A sign
#: flip of the non-adaptive rates makes the ratio about 1900.
SIMULATED_TIME_FACTOR = 1.5


def mc_seeds(seed: int) -> dict[str, int]:
    """Independent Monte Carlo seeds of the two solvers for one workload seed."""
    import numpy as np

    children = np.random.SeedSequence(seed).spawn(len(SOLVERS))
    return {
        solver: int(child.generate_state(1, np.uint64)[0])
        for solver, child in zip(SOLVERS, children)
    }


@dataclasses.dataclass
class Phase:
    """One solver's fixed-event timed phase, as timed blocks."""

    solver: str
    block_events: list[int]
    block_seconds: list[float]
    #: reference-kernel seconds bracketing each block (see reference.py)
    block_reference: list[float]
    counters: dict[str, int]
    event_hash: str

    @property
    def events(self) -> int:
        return self.counters["events"]

    @property
    def wall_events_per_s(self) -> float:
        """Realised events per wall second over the whole phase."""
        return sum(self.block_events) / sum(self.block_seconds)

    @property
    def events_per_s(self) -> float:
        """Realised events per second with each block's wall time
        rescaled to the nominal host speed."""
        return sum(self.block_events) / sum(
            seconds * reference.NOMINAL_SECONDS / ref
            for seconds, ref in zip(self.block_seconds, self.block_reference)
        )


@dataclasses.dataclass
class Check:
    """Correctness operations: one entry per point, output or budget."""

    attempted: int = 0
    failed: int = 0
    failures: list[str] = dataclasses.field(default_factory=list)
    notes: dict = dataclasses.field(default_factory=dict)

    def expect(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)


def measure(workload, around=None, kernel=None) -> dict[str, Phase]:
    """Warm both engines up, then run their timed blocks interleaved.

    Block ``k`` of the adaptive solver is followed by block ``k`` of the
    non-adaptive one, so both phases span the whole measuring window
    and see the same mix of host load.  The reference kernel runs
    before the first block and after every block; each block is
    rescaled by the mean of the two runs around it (on ``set-iv`` this
    gave a smaller spread than one run per block pair).  The solvers keep
    separate engines and random streams, so interleaving changes no
    simulated number.  ``around(solver)``, when given, returns a
    context manager entered around each of that solver's blocks (the
    tracer's phase scope, or a seeded bug in the self-tests); it is
    outside the timer.
    """
    for solver in SOLVERS:
        workload.warm_up(solver)
    stats = {s: workload.engines[s].solver.stats for s in SOLVERS}
    before = {s: dataclasses.replace(stats[s]) for s in SOLVERS}
    events: dict[str, list[int]] = {s: [] for s in SOLVERS}
    seconds: dict[str, list[float]] = {s: [] for s in SOLVERS}
    kernel = kernel if kernel is not None else reference.Kernel()
    clock = time.perf_counter
    gc.collect()
    block_reference: dict[str, list[float]] = {s: [] for s in SOLVERS}
    last = kernel.burst()
    for k in range(workload.n_blocks):
        for solver in SOLVERS:
            with around(solver) if around is not None else contextlib.nullcontext():
                first = stats[solver].events
                start = clock()
                workload.block(solver, k)
                seconds[solver].append(clock() - start)
                events[solver].append(stats[solver].events - first)
            now = kernel.burst()
            block_reference[solver].append((last + now) / 2.0)
            last = now
    phases = {}
    for solver in SOLVERS:
        workload.finish(solver)
        first = before[solver].as_dict()
        phases[solver] = Phase(
            solver, events[solver], seconds[solver], block_reference[solver],
            {k: v - first[k] for k, v in stats[solver].as_dict().items()},
            workload.engines[solver].event_hash(),
        )
    workload.phases = phases
    return phases


# ----------------------------------------------------------------------
# set-iv / sset-iv: the Fig. 1b / 1c devices swept across the blockade
# ----------------------------------------------------------------------
class SweepWorkload:
    """A two-junction SET swept by the ``sweep_iv`` point loop.

    Each block is one sweep point of ``repro.core.sweep_iv`` with one
    chunk -- retarget the sources, then ``measure_current`` -- driven
    on an engine prepared during set-up, so QP tables and the initial
    refresh land in set-up time rather than in the first sweep point.
    """

    def __init__(self, name: str, seed: int, seconds: int):
        import numpy as np

        self.name = name
        self.seed = seed
        self.voltages = np.linspace(-SWEEP_SPAN_V, SWEEP_SPAN_V, SWEEP_POINTS)
        self.n_blocks = len(self.voltages)
        self.jumps = JUMPS_PER_POINT_PER_SECOND[name] * seconds
        self.seeds = mc_seeds(seed)
        self.engines: dict = {}
        self.currents: dict[str, list[float]] = {s: [] for s in SOLVERS}
        self.windows: dict[str, list[float]] = {s: [] for s in SOLVERS}
        self.phases: dict[str, Phase] = {}

    def inputs(self) -> dict:
        return {
            "voltages": [float(v).hex() for v in self.voltages],
            "jumps_per_point": self.jumps,
            "mc_seeds": self.seeds,
        }

    def build(self):
        from repro.circuit import Superconductor, build_set
        from repro.constants import MEV

        if self.name == "set-iv":
            return build_set(), 5.0
        sc = Superconductor(delta0=0.2 * MEV, tc=1.2)
        return build_set(superconductor=sc), 0.05

    def setup(self) -> None:
        from repro.core import MonteCarloEngine, SimulationConfig, symmetric_bias

        self.circuit, self.temperature = self.build()
        self.setter = symmetric_bias()
        for solver in SOLVERS:
            config = SimulationConfig(
                temperature=self.temperature, solver=solver,
                seed=self.seeds[solver], event_hash=True,
            )
            engine = MonteCarloEngine(self.circuit, config)
            engine.set_sources(self.setter(float(self.voltages[0])))
            self.engines[solver] = engine

    def warm_up(self, solver: str) -> None:
        self.engines[solver].run(max_jumps=WARMUP_EVENTS[self.name])

    def block(self, solver: str, k: int) -> None:
        from repro.errors import FrozenCircuitError

        engine = self.engines[solver]
        engine.set_sources(self.setter(float(self.voltages[k])))
        try:
            current = engine.measure_current([0], self.jumps)
        except FrozenCircuitError:
            current = 0.0
        self.currents[solver].append(current)
        self.windows[solver].append(engine.solver.window_elapsed)

    def finish(self, solver: str) -> None:
        pass

    def check(self) -> Check:
        from repro.core import sweep_master_iv
        from repro.gen.differential import Tolerance

        check = Check()
        reference = sweep_master_iv(
            self.circuit, self.voltages, temperature=self.temperature,
        ).currents
        scale = max(abs(float(c)) for c in reference)
        tolerance = Tolerance()
        for solver in SOLVERS:
            phase = self.phases[solver]
            budget = self.jumps * len(self.voltages)
            check.expect(
                phase.events == budget,
                f"{solver}: {phase.events} events realised, budget {budget}",
            )
            for v, ref, got, window in zip(
                self.voltages, reference, self.currents[solver], self.windows[solver]
            ):
                limit = tolerance.budget(float(ref), shot_noise(got, window), scale)
                check.expect(
                    abs(got - float(ref)) <= limit,
                    f"{solver} V={v * 1e3:+.2f} mV: {got:.4e} A vs master "
                    f"{float(ref):.4e} A (budget {limit:.2e})",
                )
        return check


# ----------------------------------------------------------------------
# c1908: the paper's largest logic benchmark under a toggling input
# ----------------------------------------------------------------------
class LogicWorkload:
    """c1908 toggling ``before`` <-> ``after`` every fixed event interval.

    Block ``k`` drives ``after`` (even ``k``) or ``before`` (odd ``k``)
    and runs one toggle interval; the block count is even, so the
    phase ends holding ``before``.
    """

    name = "c1908"

    def __init__(self, seed: int, seconds: int):
        self.seed = seed
        blocks = max(2, round(C1908_EVENTS_PER_SECOND * seconds / C1908_TOGGLE_EVENTS))
        self.n_blocks = blocks + blocks % 2
        self.seeds = mc_seeds(seed)
        self.engines: dict = {}
        self.recorders: dict = {}
        self.phases: dict[str, Phase] = {}
        self.warm_levels: dict = {}
        self.final_levels: dict = {}
        #: simulated seconds each solver's timed phase covered
        self.simulated_s: dict[str, float] = {}

    def inputs(self) -> dict:
        return {
            "before": self.stimulus.before,
            "after": self.stimulus.after,
            "toggled_outputs": self.stimulus.toggled_outputs,
            "blocks": self.n_blocks,
            "toggle_events": C1908_TOGGLE_EVENTS,
            "mc_seeds": self.seeds,
        }

    def levels(self, solver: str) -> dict[str, bool]:
        v = self.engines[solver].solver.potentials()
        threshold = self.mapped.params.logic_threshold
        return {
            net: bool(v[self.mapped.island_of(net)] > threshold)
            for net in self.mapped.netlist.outputs
        }

    def setup(self) -> None:
        from repro.core import MonteCarloEngine, SimulationConfig
        from repro.logic import build_benchmark, find_step_stimulus

        self.mapped = build_benchmark("c1908")
        self.stimulus = find_step_stimulus(self.mapped.netlist, C1908_STIMULUS_SEED)
        self.vectors = (
            self.mapped.input_voltages(self.stimulus.after),
            self.mapped.input_voltages(self.stimulus.before),
        )
        self.watched = self.mapped.island_of(self.stimulus.toggled_outputs[0][0])
        occupation = self.mapped.initial_occupation(self.stimulus.before)
        for solver in SOLVERS:
            config = SimulationConfig(
                temperature=self.mapped.params.temperature, solver=solver,
                seed=self.seeds[solver], event_hash=True,
            )
            engine = MonteCarloEngine(
                self.mapped.circuit, config, initial_occupation=occupation,
            )
            engine.set_sources(self.vectors[1])
            self.engines[solver] = engine

    def warm_up(self, solver: str) -> None:
        from repro.core import NodeVoltageRecorder

        engine = self.engines[solver]
        engine.run(max_jumps=WARMUP_EVENTS[self.name])
        self.warm_levels[solver] = self.levels(solver)
        self.simulated_s[solver] = -engine.solver.time
        self.recorders[solver] = engine.add_recorder(
            NodeVoltageRecorder(self.watched, RECORDER_INTERVAL)
        )

    def block(self, solver: str, k: int) -> None:
        engine = self.engines[solver]
        engine.set_sources(self.vectors[k % 2])
        engine.run(max_jumps=C1908_TOGGLE_EVENTS)

    def finish(self, solver: str) -> None:
        self.final_levels[solver] = self.levels(solver)
        self.simulated_s[solver] += self.engines[solver].solver.time

    def check(self) -> Check:
        """Gated: event budget, the logic level of every primary output
        after the warm-up's Monte Carlo events at the held vector, the
        watched output's sample count, the adaptive solver's
        incrementally updated potentials against a fresh solve, and the
        two solvers' simulated time over their phases against each other.
        Reported only: the levels at the end of the phase, which a
        1000-event toggle interval leaves mid-propagation (see
        README.md)."""
        check = Check()
        want = self.mapped.netlist.output_values(self.stimulus.before)
        budget = self.n_blocks * C1908_TOGGLE_EVENTS
        for solver in SOLVERS:
            phase = self.phases[solver]
            check.expect(
                phase.events == budget,
                f"{solver}: {phase.events} events realised, budget {budget}",
            )
            samples = len(self.recorders[solver].samples)
            expected = self.n_blocks + budget // RECORDER_INTERVAL
            check.expect(
                samples == expected,
                f"{solver}: {samples} recorder samples, expected {expected}",
            )
            for net, value in want.items():
                got = self.warm_levels[solver][net]
                check.expect(
                    got == value,
                    f"{solver}: output {net} reads {got} after warm-up, "
                    f"netlist gives {value}",
                )
            final = self.final_levels[solver]
            matching = sum(final[n] == v for n, v in want.items())
            check.notes[f"{solver}.final_outputs_matching"] = f"{matching}/{len(want)}"
        engine = self.engines["adaptive"]
        fresh = engine.electrostatics.potentials(
            engine.solver.occupation, engine.solver.vext
        )
        drift = float(abs(engine.solver.potentials() - fresh).max())
        check.notes["adaptive.potential_drift_v"] = drift
        check.expect(
            drift <= POTENTIAL_TOLERANCE_V,
            f"adaptive: incremental potentials drift {drift:.3e} V from a fresh solve",
        )
        ratio = self.simulated_s["adaptive"] / self.simulated_s["nonadaptive"]
        check.notes["simulated_time_ratio"] = ratio
        check.expect(
            1.0 / SIMULATED_TIME_FACTOR <= ratio <= SIMULATED_TIME_FACTOR,
            f"adaptive / non-adaptive simulated time over {budget} events is "
            f"{ratio:.4g}, outside a factor {SIMULATED_TIME_FACTOR}",
        )
        return check


def shot_noise(current: float, window: float) -> float:
    """Poisson standard error of a current measured over ``window``
    seconds: ``|I| / sqrt(n)`` for the ``n = |I| window / e`` electrons
    it counts.  Tunnelling through a SET is sub-Poissonian (Fano factor
    below 1), so this overstates the error slightly; it stands in for
    the replica spread ``Tolerance`` expects, which one run lacks."""
    from repro.constants import E_CHARGE

    electrons = abs(current) * window / E_CHARGE
    return abs(current) / electrons ** 0.5 if electrons > 0.0 else 0.0


def make_workload(name: str, seed: int, seconds: int):
    if name == "c1908":
        return LogicWorkload(seed, seconds)
    return SweepWorkload(name, seed, seconds)


# ----------------------------------------------------------------------
# per-process driver
# ----------------------------------------------------------------------
def machine() -> dict:
    """The row that records the machine: cpus, versions, BLAS threads."""
    import platform

    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cpus": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
    }


def blas_threads() -> int | None:
    """Thread count the loaded OpenBLAS reports, or ``None`` if unknown."""
    import ctypes

    with open("/proc/self/maps") as maps:
        libraries = {
            line.split()[-1] for line in maps if "openblas" in line.lower()
        }
    for path in sorted(libraries):
        library = ctypes.CDLL(path)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            function = getattr(library, symbol, None)
            if function is not None:
                function.restype = ctypes.c_int
                function.argtypes = []
                return int(function())
    return None


def execute(mode: str, name: str, seed: int, seconds: int, t_launch: float) -> dict:
    start = time.monotonic()
    import repro  # noqa: F401  (the import is part of set-up)

    import_s = time.monotonic() - start
    from repro.dsan.runtime import fold_hashes
    tracer = None
    if mode == "trace":
        import tracing

        tracer = tracing.Tracer()
        install(tracer)
    workload = make_workload(name, seed, seconds)
    workload.setup()
    setup_s = time.monotonic() - t_launch
    kernel = reference.Kernel()
    kernel.burst()  # warm-up run, not used
    record: dict = {
        "mode": mode, "setup_s": setup_s, "import_s": import_s,
        "setup_reference": kernel.burst(),
    }
    if mode == "setup":
        return record
    measure(workload, tracer.timed_phase if tracer is not None else None, kernel)
    record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        tracer.uninstall()
        record["trace"] = trace_summary(tracer, name, seed)
    check = workload.check()
    record.update(
        inputs_digest=hashlib.blake2b(
            json.dumps(workload.inputs(), sort_keys=True).encode(), digest_size=16
        ).hexdigest(),
        phases={
            s: {
                "events_per_s": p.events_per_s,
                "wall_events_per_s": p.wall_events_per_s,
                "block_reference": p.block_reference,
                "block_events": p.block_events,
                "block_seconds": p.block_seconds,
                "counters": p.counters,
                "event_hash": p.event_hash,
            }
            for s, p in workload.phases.items()
        },
        event_hash=fold_hashes([workload.phases[s].event_hash for s in SOLVERS]),
        attempted=check.attempted,
        failed=check.failed,
        failures=check.failures[:20],
        notes=check.notes,
        machine=machine(),
    )
    return record


#: (``module:Class`` or ``module``, attribute, span name, per-call span?)
TRACED = (
    ("repro.core:AdaptiveSolver", "step", "core.adaptive.step", True),
    ("repro.core:NonAdaptiveSolver", "step", "core.nonadaptive.step", True),
    ("repro.core:MonteCarloEngine", "run", "core.engine.run", True),
    ("repro.core:MonteCarloEngine", "set_sources", "core.set_sources", True),
    ("repro.core:NodeVoltageRecorder", "on_event", "core.recorder.on_event", True),
    ("repro.core.pairtree:PairRateTree", "update", "core.pairtree.update", True),
    ("repro.core.pairtree:PairRateTree", "sample", "core.pairtree.sample", True),
    ("repro.circuit:Electrostatics", "potential_update", "circuit.potential_update", True),
    ("repro.circuit:Electrostatics", "cinv_column", "circuit.cinv_column", True),
    ("repro.circuit:Electrostatics", "potentials", "circuit.potentials", True),
    ("repro.circuit.junction_table:JunctionTable", "free_energy_changes",
     "circuit.free_energy_changes", True),
    ("repro.physics:TunnelingModel", "sequential_rates", "physics.sequential_rates", True),
    ("repro.physics:TunnelingModel", "sequential_rate_single",
     "physics.sequential_rate_single", True),
    ("repro.physics:TunnelingModel", "cooper_pair_rates", "physics.cooper_pair_rates", True),
    ("repro.logic", "build_benchmark", "logic.build_benchmark", False),
    ("repro.circuit:Electrostatics", "__init__", "circuit.electrostatics_init", False),
    ("repro.circuit.junction_table:JunctionTable", "__init__",
     "circuit.junction_table_init", False),
    ("repro.physics:TunnelingModel", "__init__", "physics.model_init", False),
    ("repro.core:AdaptiveSolver", "__init__", "core.solver_init", False),
    ("repro.core:NonAdaptiveSolver", "__init__", "core.solver_init", False),
)


def install(tracer) -> None:
    """Wrap every callable in :data:`TRACED`.  Workloads import what
    they call at set-up, after this, so they pick up the wrappers."""
    import importlib

    for path, attr, span, fine in TRACED:
        module, _, owner = path.partition(":")
        target = importlib.import_module(module)
        tracer.wrap(getattr(target, owner) if owner else target, attr, span, fine)


def trace_summary(tracer, name: str, seed: int) -> dict:
    """Write the spans under ``.bench_build`` and return the self-time
    table ``{phase: {span: [self seconds, calls]}}``."""
    from pathlib import Path

    import tracing

    tracer.write(Path(".bench_build", "perfbench", f"spans-{name}-{seed}.npz"))
    table = tracing.summarize(tracer.arrays(), tracer.names, tracer.phase_names)
    return {phase: {k: list(v) for k, v in rows.items()} for phase, rows in table.items()}


def main(argv: list[str]) -> int:
    mode, name, seed, seconds, t_launch = argv
    if mode not in ("setup", "run", "trace") or name not in WORKLOADS:
        print("usage: workloads.py setup|run|trace WORKLOAD SEED SECONDS T_LAUNCH",
              file=sys.stderr)
        return 2
    record = execute(mode, name, int(seed), int(seconds), float(t_launch))
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
