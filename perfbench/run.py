"""Benchmark command: events per second per solver, set-up and memory.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload set-iv|sset-iv|c1908 --seed N \\
        --seconds S --trace 0|1

Every measurement runs in a fresh interpreter (``workloads.py``), one
process at a time, with one BLAS thread and ``repro.telemetry`` off.

``--trace 0`` prints the end-to-end metrics: ``setup_s`` (median over
several fresh interpreters), ``adaptive_events_per_s``,
``nonadaptive_events_per_s`` and ``peak_rss_mb``.  Times are rescaled
to a nominal host speed measured with ``reference.py`` next to each
timed block and set-up; the raw wall-clock figures are printed too.  ``--trace 1`` runs
the workload once untraced (exact ``SolverStats`` counters, untraced
throughput) and once under the span tracer, and prints the per-layer
metrics.  Both check the simulator's outputs (see README.md).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import reference
from workloads import SOLVERS, WORKLOADS

HERE = Path(__file__).resolve().parent
#: fresh interpreters whose set-up time is measured, per ``--trace 0`` run
SETUP_SAMPLES = 5


def deadline_s(seconds: int) -> float:
    """Wall-clock limit for the whole command: the work grows linearly
    with ``--seconds``; fresh-interpreter set-ups add a fixed part
    (170 s at the benchmark's 20 s)."""
    return 60.0 + 5.5 * seconds


def child(mode: str, args, root: Path, deadline: float, kernel) -> dict:
    """Run one measurement in a fresh interpreter and return its record."""
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    before = kernel.burst()
    launch = time.monotonic()
    try:
        proc = subprocess.run(
            [
                sys.executable, str(HERE / "workloads.py"), mode, args.workload,
                str(args.seed), str(args.seconds), repr(launch),
            ],
            cwd=root, env=env, capture_output=True, text=True,
            timeout=max(1.0, deadline - launch),
        )
    except subprocess.TimeoutExpired:
        raise SystemExit(
            f"perfbench: {mode} process passed the {deadline_s(args.seconds):.0f} s "
            "deadline and was stopped"
        ) from None
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"perfbench: {mode} process exited with {proc.returncode}")
    record = json.loads(proc.stdout.strip().splitlines()[-1])
    # set-up time at the nominal host speed: the reference kernel ran
    # just before the launch and just after the set-up
    load = (before + record["setup_reference"]) / 2.0 / reference.NOMINAL_SECONDS
    record["setup_wall_s"] = record["setup_s"]
    record["setup_s"] /= load
    return record


def per_event(seconds: float, events: int) -> float:
    return 1e6 * seconds / events


def exact_counters(run: dict) -> dict[str, tuple[float, str]]:
    """Per-layer work counters from ``SolverStats`` (repeat bit-for-bit)."""
    c = {s: run["phases"][s]["counters"] for s in SOLVERS}
    out = {}
    for s in SOLVERS:
        out[f"core.{s}.seq_rate_evals_per_event"] = (
            c[s]["sequential_rate_evaluations"] / c[s]["events"], "1/event")
        out[f"core.{s}.secondary_rate_evals_per_event"] = (
            c[s]["secondary_rate_evaluations"] / c[s]["events"], "1/event")
    out["core.nonadaptive.potential_solves_per_event"] = (
        c["nonadaptive"]["potential_solves"] / c["nonadaptive"]["events"], "1/event")
    out["core.adaptive.flagged_per_event"] = (
        c["adaptive"]["flagged_recalculations"] / c["adaptive"]["events"], "1/event")
    out["core.adaptive.full_refreshes"] = (c["adaptive"]["full_refreshes"], "count")
    out["core.work_ratio"] = (
        out["core.nonadaptive.seq_rate_evals_per_event"][0]
        / out["core.adaptive.seq_rate_evals_per_event"][0], "ratio")
    return out


def traced_layers(run: dict, traced: dict) -> dict[str, tuple[float, str]]:
    """Self time per layer (µs per realised event of the named phase)."""
    table = traced["trace"]
    events = {s: traced["phases"][s]["counters"]["events"] for s in SOLVERS}

    def total(span: str, phases, column: int = 0) -> float:
        return sum(table.get(p, {}).get(span, (0.0, 0))[column] for p in phases)

    both = SOLVERS
    all_events = sum(events.values())
    out: dict[str, tuple[float, str]] = {}
    for s in SOLVERS:
        out[f"core.{s}.step_self_us"] = (
            per_event(total(f"core.{s}.step", [s]), events[s]), "us")
    out["core.engine.run_self_us"] = (
        per_event(total("core.engine.run", both), all_events), "us")
    out["core.set_sources_us"] = (
        per_event(total("core.set_sources", both), all_events), "us")
    out["core.set_sources_calls"] = (total("core.set_sources", both, 1), "count")
    out["core.recorder.on_event_us"] = (
        per_event(total("core.recorder.on_event", both), all_events), "us")
    adaptive = ["adaptive"]
    out["core.pairtree.update_calls_per_event"] = (
        total("core.pairtree.update", adaptive, 1) / events["adaptive"], "1/event")
    for name in ("core.pairtree.update", "core.pairtree.sample",
                 "circuit.potential_update", "circuit.cinv_column"):
        out[f"{name}_us"] = (per_event(total(name, adaptive), events["adaptive"]), "us")
    out["circuit.cinv_column_calls_per_event"] = (
        total("circuit.cinv_column", adaptive, 1) / events["adaptive"], "1/event")
    nonadaptive = ["nonadaptive"]
    for name in ("circuit.potentials", "circuit.free_energy_changes",
                 "physics.sequential_rates"):
        out[f"{name}_us"] = (
            per_event(total(name, nonadaptive), events["nonadaptive"]), "us")
    # every call is a sparse solve, the recorder's samples included, which
    # the exact ``potential_solves`` counter leaves out
    out["circuit.potentials_calls_per_event"] = (
        total("circuit.potentials", nonadaptive, 1) / events["nonadaptive"], "1/event")
    for name in ("physics.sequential_rate_single", "physics.cooper_pair_rates"):
        out[f"{name}_us"] = (per_event(total(name, both), all_events), "us")
    out["repro.import_s"] = (traced["import_s"], "s")
    for name in ("logic.build_benchmark", "circuit.electrostatics_init",
                 "core.solver_init", "circuit.junction_table_init",
                 "physics.model_init"):
        out[f"{name}_s"] = (total(name, ["setup"]), "s")
    for s in SOLVERS:
        out[f"trace.{s}.overhead"] = (
            run["phases"][s]["events_per_s"] / traced["phases"][s]["events_per_s"],
            "ratio")
    return out


def host_figures(run: dict) -> dict[str, tuple[float, str]]:
    """The untraced run's raw wall-clock throughputs and the host load
    (reference-kernel time over its nominal time) they were taken at."""
    out = {
        f"host.{s}_wall_events_per_s": (run["phases"][s]["wall_events_per_s"], "1/s")
        for s in SOLVERS
    }
    load = statistics.median(run["phases"]["adaptive"]["block_reference"])
    out["host.reference_load"] = (load / reference.NOMINAL_SECONDS, "ratio")
    return out


def identity(label: str, record: dict) -> None:
    """Print the identity record next to the throughputs."""
    for s in SOLVERS:
        phase = record["phases"][s]
        print(f"[{label}] {s:11s} {phase['events_per_s']:12.1f} events/s "
              f"({phase['wall_events_per_s']:.1f} wall)  "
              f"hash {phase['event_hash']}  counters {json.dumps(phase['counters'])}")
    print(f"[{label}] folded event hash {record['event_hash']}  "
          f"inputs {record['inputs_digest']}  checks {record['attempted']} "
          f"attempted, {record['failed']} failed  notes {json.dumps(record['notes'])}")
    for failure in record["failures"]:
        print(f"[{label}] FAILED {failure}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    deadline = time.monotonic() + deadline_s(args.seconds)
    root = Path.cwd()
    package = root / "src" / "repro"
    if not (package / "__init__.py").is_file():
        print(f"perfbench: no simulator sources at {package}; run from the "
              "root of a checkout", file=sys.stderr)
        return 2
    # byte-compile once, outside every timed set-up
    if not compileall.compile_dir(str(package), quiet=1):
        print("perfbench: the simulator sources do not compile", file=sys.stderr)
        return 2

    kernel = reference.Kernel()
    kernel.burst()  # warm-up run, not used
    run = child("run", args, root, deadline, kernel)
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} machine {json.dumps(run['machine'])}")
    identity("untraced", run)
    attempted, failed = run["attempted"], run["failed"]
    if args.trace:
        traced = child("trace", args, root, deadline, kernel)
        identity("traced", traced)
        attempted += traced["attempted"] + 1
        failed += traced["failed"]
        if traced["event_hash"] != run["event_hash"]:
            failed += 1
            print("[traced] FAILED tracing changed the event stream")
        metrics = exact_counters(run)
        metrics.update(traced_layers(run, traced))
        metrics.update(host_figures(run))
        print(f"work ratio {metrics['core.work_ratio'][0]:.6g} = "
              f"{metrics['core.nonadaptive.seq_rate_evals_per_event'][0]:.6g} / "
              f"{metrics['core.adaptive.seq_rate_evals_per_event'][0]:.6g} "
              "sequential rate evaluations per event (non-adaptive / adaptive)")
    else:
        samples = [run] + [
            child("setup", args, root, deadline, kernel)
            for _ in range(SETUP_SAMPLES - 1)
        ]
        setups = [r["setup_s"] for r in samples]
        print(f"setup_s samples {json.dumps(setups)} "
              f"(wall {json.dumps([r['setup_wall_s'] for r in samples])})")
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "adaptive_events_per_s": (run["phases"]["adaptive"]["events_per_s"], "1/s"),
            "nonadaptive_events_per_s": (
                run["phases"]["nonadaptive"]["events_per_s"], "1/s"),
            "peak_rss_mb": (run["peak_rss_mb"], "MB"),
        }
    for name, (value, unit) in metrics.items():
        print(f"{name:45s} {value:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
