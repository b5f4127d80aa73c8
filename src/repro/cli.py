"""Command-line front end (``python -m repro``).

The original SEMSIM was driven from input decks on the command line;
this CLI reproduces that workflow:

``python -m repro run deck.txt``
    Parse a SEMSIM input deck, run the simulation it describes (sweep
    or single operating point) and print/save the I-V results.
    ``--jobs N`` fans the sweep out over worker processes and
    ``--chunks M`` splits it into independently seeded voltage chunks;
    results depend only on the chunk layout, never on the worker
    count, so ``--jobs 4`` reproduces ``--jobs 1`` bit for bit.
    ``--retries``/``--shard-timeout`` tune the fault-tolerance policy
    for dead or wedged workers; ``--campaign DIR`` (below) keeps each
    finished shard, so an interrupted run resumes by rerunning it.
``python -m repro info deck.txt``
    Parse and validate a deck, reporting the circuit statistics and a
    one-line static-analysis summary.  ``--probe N`` additionally runs
    ``N`` tunnel events and prints which adaptive step ran (the native
    kernel and its library, or Python and why) and the solver
    work-counter table.
``python -m repro profile deck.txt --trace out.json``
    Run the deck under the telemetry layer and print a profiling
    summary (per-phase wall time, solver work counters, adaptive
    efficiency against the non-adaptive baseline).  ``--trace``
    additionally writes the span trace — a Chrome trace-event file
    loadable in ``chrome://tracing``/Perfetto, or JSON Lines when the
    file name ends in ``.jsonl``.
``python -m repro lint deck.txt``
    Static analysis only: report every ``SEM0xx`` diagnostic of a deck
    or logic netlist without running any Monte Carlo.  The exit code
    mirrors the worst severity (0 clean/info, 1 warnings, 2 errors).
``python -m repro run deck.txt --dsan``
    Runtime determinism sanitizer: execute the deck twice under the
    same seed with the pool boundary armed, compare order-sensitive
    event-stream hashes and fail (exit 1) if the replicas diverge.
``python -m repro run deck.txt --progress``
    Live monitoring on stderr while the run executes: shards done and
    in flight, retries, aggregate events/second, ETA and stalled-shard
    warnings.  Strictly out-of-band — results and event hashes are
    bit-identical with or without it.  Every ``repro run`` also
    appends one JSONL record to the run ledger
    (``~/.cache/repro/ledger.jsonl``; ``--ledger FILE`` or
    ``REPRO_LEDGER`` overrides, ``--no-ledger`` disables).
``python -m repro report``
    Perf trajectories over the run ledger: runs of the same workload
    are matched by fingerprint and judged for events/second
    regressions (``--check`` exits 1 on any); ``--format
    json|openmetrics`` selects machine-readable output.  A named
    ``--ledger`` that does not exist exits 2.
``python -m repro run deck.txt --campaign DIR``
    Consult the persistent content-addressed result store under
    ``DIR`` before simulating: sweep shards already computed are
    replayed from the store, fresh ones are persisted as they land.
    This is the resume path: rerunning an interrupted run on the same
    store computes only the missing shards, and a rerun of a finished
    one computes nothing; both return bit-identical results (same
    combined event hash).  A changed deck, config or seed addresses
    different cells, so it is computed afresh.  A ``campaign cache: N
    cached, M computed`` summary goes to stderr.
``python -m repro campaign run deck.txt --param g=0:0.1:21 ...``
    Parameter-space campaigns (ns-3 ``sem`` style): cross the deck's
    workload with explicit ``--param`` axes and ``--replicas``, then
    compute *only the cells missing from the store*.  ``status`` diffs
    the grid against the store without running, ``results`` assembles
    the dense numpy grid (``--out grid.npz`` to export) and ``gc``
    applies retention policy (``--keep-current-code``,
    ``--older-than DAYS``).
``python -m repro fuzz run --seed 0 --budget 25 --jobs 2``
    Differential fuzzing campaign: draw ``--budget`` random cases from
    the device/logic families (seed-deterministic — the case set and
    every verdict are bit-identical for any ``--jobs``), cross-check
    each against every applicable oracle (adaptive MC, non-adaptive
    MC, master equation, SPICE compact model; logic cases check the
    technology mapper instead), shrink the first failures to minimal
    reproducer decks and, with ``--out DIR``, write the failure corpus
    plus a ``report.json``.  ``--campaign DIR`` caches whole verdicts
    content-addressed; ``--inject-bug sign-flip`` is the CI fixture
    that proves the oracle catches a corrupted solver.  Exit 1 when
    any case fails.
``python -m repro fuzz replay PATH [PATH ...]``
    Re-run pinned reproducer entries (directories written by ``fuzz
    run --out`` or promoted into the golden corpus) and verify they
    reproduce their recorded verdicts, oracle currents (bit-for-bit,
    ``float.hex``) and event hashes.  Exit 1 on any divergence.
``python -m repro fuzz corpus promote SRC --dest tests/data/golden/fuzz``
    Copy fuzz corpus entries into the pinned golden corpus the test
    suite replays on every run.
``python -m repro benchmark 74LS138``
    Build one of the paper's logic benchmarks and report its size.
``python -m repro benchmarks``
    List all fifteen paper benchmarks.

Exit codes across all subcommands: 0 success, 1 defective input
(parse/physics/simulation errors), 2 unreadable input (missing or
unreadable file) — except ``lint``, whose exit code is the worst
diagnostic severity as above.
"""

from __future__ import annotations

import argparse
import errno
import sys
from pathlib import Path
from typing import TYPE_CHECKING

from repro.errors import CircuitError, SemsimError, SimulationError

if TYPE_CHECKING:
    import numpy as np

    from repro.campaign import Campaign


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="SEMSIM reproduction: single-electron circuit simulation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="execute a SEMSIM input deck")
    run.add_argument("deck", type=Path, help="path to the input deck")
    run.add_argument(
        "--solver", choices=("adaptive", "nonadaptive"), default="adaptive"
    )
    run.add_argument("--seed", type=int, default=0)
    run.add_argument(
        "--output", type=Path, default=None,
        help="write the sweep as CSV instead of printing it",
    )
    run.add_argument(
        "--strict", action="store_true",
        help="refuse to run decks with error-severity lint findings",
    )
    run.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="worker processes for sweep execution (default 1 = serial; "
             "0 = all cores); for a fixed --chunks the results are "
             "bit-identical for every N",
    )
    run.add_argument(
        "--chunks", type=int, default=1, metavar="M",
        help="split the sweep into M independently seeded voltage chunks "
             "(default 1 = the byte-identical serial sweep); results "
             "depend on M, never on --jobs",
    )
    run.add_argument(
        "--trace", type=Path, default=None, metavar="FILE",
        help="record a telemetry trace of the run (Chrome trace-event "
             "JSON; '.jsonl' suffix selects JSON Lines)",
    )
    run.add_argument(
        "--retries", type=int, default=2, metavar="N",
        help="retries per shard after a worker dies or times out "
             "(default 2); a retried shard reuses its own spawned "
             "seed, so recovery never changes results",
    )
    run.add_argument(
        "--shard-timeout", type=float, default=None, metavar="SECONDS",
        help="wall-clock budget per pooled shard; an overrunning shard "
             "is charged a failed attempt and its worker pool rebuilt",
    )
    run.add_argument(
        "--dsan", action="store_true",
        help="runtime determinism sanitizer: execute the deck twice "
             "under the same seed, compare order-sensitive event-stream "
             "hashes, and verify every pool boundary (picklable shard "
             "payloads, module-level workers, no worker state leaks); "
             "exit 1 if the replicas diverge",
    )
    run.add_argument(
        "--progress", action="store_true",
        help="live monitoring on stderr: shards done/in flight/retried, "
             "aggregate events/second, ETA, stalled-shard warnings; "
             "out-of-band, so results are bit-identical with or "
             "without it",
    )
    run.add_argument(
        "--ledger", type=Path, default=None, metavar="FILE",
        help="append this run's record to FILE instead of the default "
             "run ledger ($REPRO_LEDGER or ~/.cache/repro/ledger.jsonl)",
    )
    run.add_argument(
        "--no-ledger", action="store_true",
        help="do not record this run in the run ledger",
    )
    run.add_argument(
        "--campaign", type=Path, default=None, metavar="DIR",
        help="consult the content-addressed result store under DIR "
             "before simulating: sweep shards already computed are "
             "replayed, fresh ones are persisted as they finish, so "
             "rerunning an interrupted run resumes it (forces event "
             "hashing; a cached rerun is bit-identical); a 'campaign "
             "cache: N cached, M computed' summary is printed on stderr",
    )

    info = sub.add_parser("info", help="parse and describe a deck")
    info.add_argument("deck", type=Path)
    info.add_argument(
        "--probe", type=int, default=0, metavar="N",
        help="run N tunnel events and print which adaptive step ran "
             "(native kernel or Python, and why) and the solver stats "
             "table",
    )

    profile = sub.add_parser(
        "profile", help="run a deck under telemetry and summarise where "
                        "the time goes"
    )
    profile.add_argument("deck", type=Path, help="path to the input deck")
    profile.add_argument(
        "--solver", choices=("adaptive", "nonadaptive"), default="adaptive"
    )
    profile.add_argument("--seed", type=int, default=0)
    profile.add_argument(
        "--trace", type=Path, default=None, metavar="FILE",
        help="write the span trace (Chrome trace-event JSON; '.jsonl' "
             "suffix selects JSON Lines)",
    )
    profile.add_argument(
        "--format", choices=("auto", "chrome", "jsonl"), default="auto",
        help="trace file format (default: by file suffix)",
    )
    profile.add_argument(
        "--baseline", action="store_true",
        help="also run the non-adaptive solver for a measured wall-clock "
             "comparison",
    )

    lint = sub.add_parser(
        "lint", help="static-analyse a deck or logic netlist (no simulation)"
    )
    lint.add_argument(
        "target", type=Path, nargs="?", default=None,
        help="path to a SEMSIM deck or logic netlist",
    )
    lint.add_argument(
        "--format", choices=("auto", "deck", "logic"), default="auto",
        help="input format (default: sniffed from the content)",
    )
    lint.add_argument(
        "--benchmark", metavar="NAME", default=None,
        help="lint one of the paper's logic benchmarks instead of a file",
    )
    lint.add_argument(
        "--benchmarks", action="store_true",
        help="lint all fifteen paper benchmarks",
    )
    lint.add_argument(
        "--codes", action="store_true",
        help="print the table of SEM0xx diagnostic codes and exit",
    )

    report = sub.add_parser(
        "report",
        help="perf trajectories and regression verdicts from the run "
             "ledger",
    )
    report.add_argument(
        "--ledger", type=Path, default=None, metavar="FILE",
        help="ledger file to read (default: $REPRO_LEDGER or "
             "~/.cache/repro/ledger.jsonl)",
    )
    report.add_argument(
        "--format", choices=("text", "json", "openmetrics"),
        default="text",
        help="report format (default: text); 'openmetrics' renders the "
             "latest snapshot per workload as a text exposition",
    )
    report.add_argument(
        "--threshold", type=float, default=0.2, metavar="FRACTION",
        help="events/second drop (vs the median of earlier runs of the "
             "same workload) that counts as a regression, in (0, 1) "
             "(default 0.2)",
    )
    report.add_argument(
        "--check", action="store_true",
        help="exit 1 when any workload regressed (for CI gating)",
    )

    bench = sub.add_parser("benchmark", help="build a paper logic benchmark")
    bench.add_argument("name", help="benchmark name, e.g. '74LS138'")

    sub.add_parser("benchmarks", help="list the paper's 15 benchmarks")

    campaign = sub.add_parser(
        "campaign",
        help="parameter-space campaigns over the persistent "
             "content-addressed result store",
    )
    csub = campaign.add_subparsers(dest="action", required=True)

    def _campaign_identity(p) -> None:
        p.add_argument("deck", type=Path, help="path to the input deck")
        p.add_argument(
            "--param", action="append", default=[], metavar="NAME=SPEC",
            required=True,
            help="one parameter dimension: NAME=START:STOP:COUNT "
                 "(inclusive linspace) or NAME=V1,V2,... ; NAME is a "
                 "source name or a deck node number (node N drives "
                 "source vN); repeat for a grid",
        )
        p.add_argument("--replicas", type=int, default=1, metavar="R",
                       help="independent repetitions per point (default 1)")
        p.add_argument("--jumps", type=int, default=0, metavar="N",
                       help="tunnel events per cell (default: the deck's "
                            "jumps directive)")
        p.add_argument("--solver",
                       choices=("adaptive", "nonadaptive"),
                       default="adaptive")
        p.add_argument("--seed", type=int, default=0,
                       help="campaign root seed; every cell's seed is "
                            "spawned from it at a content-derived "
                            "coordinate")
        p.add_argument("--store", type=Path, default=None, metavar="DIR",
                       help="campaign store root (default "
                            "$REPRO_CAMPAIGN_DIR or "
                            "<cache dir>/campaigns)")
        p.add_argument("--label", default="", help="campaign label")

    crun = csub.add_parser(
        "run", help="compute every cell of the grid not yet in the store"
    )
    _campaign_identity(crun)
    crun.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="worker processes (0 = all cores); results are "
             "bit-identical for every N",
    )
    crun.add_argument(
        "--ledger", type=Path, default=None, metavar="FILE",
        help="run-ledger override (as for 'repro run')",
    )
    crun.add_argument(
        "--no-ledger", action="store_true",
        help="do not record this campaign run in the run ledger",
    )

    cstatus = csub.add_parser(
        "status", help="diff the requested grid against the store"
    )
    _campaign_identity(cstatus)

    cresults = csub.add_parser(
        "results",
        help="assemble the stored grid as a dense array (never computes)",
    )
    _campaign_identity(cresults)
    cresults.add_argument(
        "--out", type=Path, default=None, metavar="FILE",
        help="write the grid and its axes to FILE as a numpy .npz "
             "archive instead of printing a summary",
    )

    cgc = csub.add_parser(
        "gc", help="apply retention policy to the campaign store"
    )
    cgc.add_argument("--store", type=Path, default=None, metavar="DIR")
    cgc.add_argument(
        "--keep-current-code", action="store_true",
        help="drop cells computed by any other code version than the "
             "current one",
    )
    cgc.add_argument(
        "--older-than", type=float, default=None, metavar="DAYS",
        help="drop cells older than DAYS days",
    )
    cgc.add_argument(
        "--fingerprint", default=None, metavar="HEX",
        help="restrict collection to one workload directory",
    )

    fuzz = sub.add_parser(
        "fuzz",
        help="differential fuzzing: random circuits cross-checked "
             "against every applicable oracle",
    )
    fsub = fuzz.add_subparsers(dest="action", required=True)

    frun = fsub.add_parser(
        "run", help="generate and differentially check a case budget"
    )
    frun.add_argument(
        "--seed", type=int, default=0,
        help="campaign root seed; the case set and every verdict are "
             "a pure function of (seed, budget, families)",
    )
    frun.add_argument(
        "--budget", type=int, default=25, metavar="N",
        help="number of generated cases (default 25)",
    )
    frun.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="worker processes (0 = all cores); verdicts are "
             "bit-identical for every N",
    )
    frun.add_argument(
        "--families", default=None, metavar="A,B,...",
        help="comma-separated case families to draw from (default: "
             "set,series_array,trap,logic)",
    )
    frun.add_argument(
        "--replicas", type=int, default=3, metavar="R",
        help="independent MC replicas per solver per case (default 3); "
             "more replicas tighten the statistical tolerance",
    )
    frun.add_argument(
        "--out", type=Path, default=None, metavar="DIR",
        help="write the failure corpus and report.json under DIR",
    )
    frun.add_argument(
        "--campaign", type=Path, default=None, metavar="DIR",
        help="cache whole case verdicts content-addressed in the "
             "campaign store under DIR; a re-run with unchanged cases "
             "replays them bit-identically",
    )
    frun.add_argument(
        "--inject-bug", choices=("sign-flip",), default=None,
        metavar="KIND", dest="inject_bug",
        help="seed a known solver bug into the non-adaptive MC path "
             "(CI fixture proving the differential oracle catches a "
             "corrupted solver); 'sign-flip' negates the tunnelling "
             "energy balance",
    )
    frun.add_argument(
        "--shrink", type=int, default=1, metavar="K",
        help="shrink the first K failures to minimal reproducers "
             "(default 1; 0 disables shrinking)",
    )
    frun.add_argument(
        "--shrink-evals", type=int, default=40, metavar="N",
        help="evaluation budget per shrink (each evaluation re-runs "
             "the full differential check)",
    )
    frun.add_argument(
        "--retries", type=int, default=2, metavar="N",
        help="retries per pooled case after a worker dies or times out",
    )
    frun.add_argument(
        "--shard-timeout", type=float, default=None, metavar="SECONDS",
        help="wall-clock budget per pooled case",
    )

    freplay = fsub.add_parser(
        "replay",
        help="re-run pinned reproducer entries and verify they "
             "reproduce bit-for-bit",
    )
    freplay.add_argument(
        "paths", type=Path, nargs="+", metavar="PATH",
        help="corpus entry directories, or directories of entries",
    )

    fcorpus = fsub.add_parser("corpus", help="manage the reproducer corpus")
    fcorpus_sub = fcorpus.add_subparsers(dest="corpus_action", required=True)
    fpromote = fcorpus_sub.add_parser(
        "promote", help="copy fuzz corpus entries into the pinned corpus"
    )
    fpromote.add_argument(
        "source", type=Path,
        help="fuzz output corpus directory (e.g. OUT/corpus)",
    )
    fpromote.add_argument(
        "--dest", type=Path, default=Path("tests/data/golden/fuzz"),
        help="pinned corpus directory (default tests/data/golden/fuzz)",
    )
    fpromote.add_argument(
        "--name", action="append", default=[], metavar="ENTRY",
        help="promote only the named entries (repeatable; default all)",
    )
    return parser


def _cmd_run(args) -> int:
    from repro.netlist import parse_semsim
    from repro.telemetry import registry as telemetry

    deck = parse_semsim(args.deck.read_text(), strict=args.strict)

    policy = None
    if args.retries != 2 or args.shard_timeout is not None:
        from repro.recovery import ExecutionPolicy

        policy = ExecutionPolicy(
            max_attempts=args.retries + 1, shard_timeout=args.shard_timeout
        )
    campaign = None
    if args.campaign is not None:
        from repro.campaign import CampaignStore

        campaign = CampaignStore(args.campaign)

    def _execute():
        if not args.dsan:
            return deck.run(
                solver=args.solver, seed=args.seed,
                jobs=args.jobs, chunks=args.chunks,
                policy=policy, campaign=campaign,
            )
        # shadow-run verification: execute the identically seeded deck
        # twice with the pool boundary armed, compare the event-stream
        # hashes, report the outcome on stderr and return the primary
        # run's curve
        from repro.dsan import dsan_mode, verify_shadow

        curves = []

        def _replica():
            curves.append(deck.run(
                solver=args.solver, seed=args.seed,
                jobs=args.jobs, chunks=args.chunks, dsan=True,
                policy=policy, campaign=campaign,
            ))
            return curves[-1].event_hash

        with dsan_mode():
            report = verify_shadow(_replica, label=str(args.deck))
        print(report.format(), file=sys.stderr)
        return curves[0]

    import contextlib

    with contextlib.ExitStack() as stack:
        if args.progress or not args.no_ledger or campaign is not None:
            # the monitor's inline event feed, the ledger's
            # recovery-counter deltas and the campaign cache summary
            # all read the parent registry; open a metrics-only
            # session when no richer one exists
            if telemetry.ACTIVE is None and args.trace is None:
                stack.enter_context(telemetry.session(trace=False))
        if not args.no_ledger:
            from repro.monitor import ledger_session

            stack.enter_context(ledger_session(args.ledger))
        if args.progress:
            from repro.monitor import monitor_session

            stack.enter_context(monitor_session())
        summary_registry = None
        if args.trace is not None:
            from repro.telemetry.exporters import write_trace

            with telemetry.session() as reg:
                curve = _execute()
            summary_registry = reg
            count = write_trace(reg, args.trace)
            print(
                f"wrote {count} trace events to {args.trace}",
                file=sys.stderr,
            )
        else:
            curve = _execute()
            summary_registry = telemetry.ACTIVE
        if campaign is not None and summary_registry is not None:
            _print_cache_summary(summary_registry)
    lines = ["sweep_voltage_V,current_A"]
    lines += [f"{v:.9g},{i:.9g}" for v, i in zip(curve.voltages, curve.currents)]
    text = "\n".join(lines) + "\n"
    if args.output is not None:
        args.output.write_text(text)
        print(f"wrote {len(curve.voltages)} points to {args.output}")
    else:
        print(text, end="")
    # the work-counter table goes to stderr so stdout stays a clean CSV
    if curve.stats is not None:
        print(curve.stats.format_table(), file=sys.stderr)
    return 0


def _print_cache_summary(registry) -> int:
    """Report campaign cache traffic on stderr; returns cells computed."""
    cached = registry.peek_counter("campaign.cell_hits")
    computed = registry.peek_counter("campaign.cells_computed")
    print(
        f"campaign cache: {cached} cached, {computed} computed",
        file=sys.stderr,
    )
    return computed


def _parse_param(spec: str) -> "tuple[str, np.ndarray]":
    """``NAME=START:STOP:COUNT`` or ``NAME=V1,V2,...`` → (name, values)."""
    import numpy as np

    name, sep, body = spec.partition("=")
    name = name.strip()
    if not sep or not name or not body:
        raise SimulationError(
            f"--param needs NAME=START:STOP:COUNT or NAME=V1,V2,... "
            f"(got {spec!r})"
        )
    try:
        if ":" in body:
            start_s, stop_s, count_s = body.split(":")
            count = int(count_s)
            if count < 1:
                raise SimulationError(
                    f"bad --param {spec!r}: COUNT must be >= 1"
                )
            values = np.linspace(float(start_s), float(stop_s), count)
        else:
            values = np.asarray(
                [float(part) for part in body.split(",") if part.strip()],
                dtype=float,
            )
    except ValueError as exc:
        raise SimulationError(f"bad --param {spec!r}: {exc}") from exc
    return name, values


def _build_campaign(args) -> "Campaign":
    """Assemble a :class:`repro.campaign.Campaign` from deck + --param."""
    from repro.campaign import Campaign, CampaignStore, PointSources
    from repro.netlist import parse_semsim

    deck = parse_semsim(args.deck.read_text())
    circuit = deck.build_circuit()
    dims = dict(_parse_param(spec) for spec in args.param)
    if len(dims) != len(args.param):
        raise SimulationError("duplicate --param dimension name")
    # map dimension names onto circuit sources: a deck node number N
    # drives its source vN, a full source name passes straight through
    source_names = {source.name for source in circuit.sources}
    rename = {}
    for name in dims:
        if name in source_names:
            continue
        if f"v{name}" in source_names:
            rename[name] = f"v{name}"
        else:
            raise SimulationError(
                f"--param dimension {name!r} matches no source "
                f"(deck has {sorted(source_names)})"
            )
    jumps = args.jumps if args.jumps > 0 else deck.jumps
    return Campaign(
        circuit,
        dims,
        deck.config(args.solver, args.seed),
        replicas=args.replicas,
        jumps_per_point=jumps,
        measure_junctions=deck.recorded_junctions(circuit),
        source_setter=PointSources(rename),
        label=args.label or str(args.deck),
        store=CampaignStore(args.store) if args.store is not None else None,
    )


def _cmd_campaign(args) -> int:
    from repro.telemetry import registry as telemetry

    if args.action == "gc":
        from repro.campaign import CampaignStore

        store = (
            CampaignStore(args.store) if args.store is not None
            else CampaignStore()
        )
        keep_version = None
        if args.keep_current_code:
            from repro.monitor.ledger import _detect_code_version

            keep_version = _detect_code_version()
        stats = store.gc(
            keep_code_version=keep_version,
            older_than=(
                args.older_than * 86400.0
                if args.older_than is not None else None
            ),
            fingerprint=args.fingerprint,
        )
        print(f"campaign store {store.root}: {stats.format()}")
        return 0

    campaign = _build_campaign(args)
    if args.action == "status":
        print(campaign.status().format())
        return 0
    if args.action == "results":
        grid = campaign.get_results_array()
        if args.out is not None:
            import numpy as np

            axes = {
                f"axis_{name}": values
                for name, values in zip(
                    campaign.space.names, campaign.space.values
                )
            }
            np.savez(args.out, currents=grid, **axes)
            print(f"wrote grid {grid.shape} to {args.out}")
        else:
            print(
                f"workload {campaign.fingerprint}: grid {grid.shape} "
                f"(dims {', '.join(campaign.space.names)} x replicas); "
                f"current range [{grid.min():.6g}, {grid.max():.6g}] A"
            )
        return 0

    # action == "run"
    import contextlib

    with contextlib.ExitStack() as stack:
        if telemetry.ACTIVE is None:
            stack.enter_context(telemetry.session(trace=False))
        if not args.no_ledger:
            from repro.monitor import ledger_session

            stack.enter_context(ledger_session(args.ledger))
        outcome = campaign.run_missing(jobs=args.jobs)
        print(outcome.format())
        if outcome.event_hash is not None:
            print(f"combined event hash: {outcome.event_hash}")
        registry = telemetry.ACTIVE
        if registry is not None:
            _print_cache_summary(registry)
    return 0


def _cmd_fuzz(args) -> int:
    if args.action == "corpus":
        from repro.gen import promote

        names = tuple(args.name) if args.name else None
        promoted = promote(args.source, args.dest, names)
        for path in promoted:
            print(f"promoted {path.name} -> {path}")
        print(f"{len(promoted)} entr{'y' if len(promoted) == 1 else 'ies'} "
              f"pinned under {args.dest}")
        return 0

    if args.action == "replay":
        from repro.gen import iter_corpus, replay
        from repro.gen.corpus import _RECORD

        entries = []
        for path in args.paths:
            if (path / _RECORD).is_file():
                entries.append(path)
            else:
                entries.extend(iter_corpus(path))
        if not entries:
            raise SemsimError(
                "no corpus entries found under "
                + ", ".join(str(p) for p in args.paths)
            )
        bad = 0
        for entry in entries:
            verdict, divergences = replay(entry)
            if divergences:
                bad += 1
                print(f"DIVERGED {entry.name}:")
                for d in divergences:
                    print(f"  {d.what}")
            else:
                print(f"ok {entry.name} ({verdict.kind})")
        print(f"replayed {len(entries)} entries, {bad} diverged")
        return 1 if bad else 0

    # action == "run"
    import contextlib

    from repro.gen import DEFAULT_FAMILIES, FuzzConfig, run_fuzz, write_artifacts
    from repro.recovery.policy import ExecutionPolicy
    from repro.telemetry import registry as telemetry

    families = (
        tuple(f.strip() for f in args.families.split(",") if f.strip())
        if args.families is not None
        else DEFAULT_FAMILIES
    )
    config = FuzzConfig(
        seed=args.seed,
        budget=args.budget,
        families=families,
        replicas=args.replicas,
        bug=args.inject_bug,
        shrink=args.shrink,
        shrink_evaluations=args.shrink_evals,
    )
    policy = ExecutionPolicy(
        max_attempts=args.retries + 1, shard_timeout=args.shard_timeout
    )
    with contextlib.ExitStack() as stack:
        if telemetry.ACTIVE is None:
            stack.enter_context(telemetry.session(trace=False))
        report = run_fuzz(
            config, jobs=args.jobs, policy=policy, campaign=args.campaign
        )
    print(report.format())
    if args.out is not None:
        root = write_artifacts(report, args.out)
        print(f"wrote report.json and {len(report.failures)} corpus "
              f"entr{'y' if len(report.failures) == 1 else 'ies'} "
              f"under {root}")
    return 0 if report.ok else 1


def _cmd_profile(args) -> int:
    from repro.netlist import parse_semsim
    from repro.telemetry.exporters import write_trace
    from repro.telemetry.profile import profile_deck

    deck = parse_semsim(args.deck.read_text())
    report, reg = profile_deck(
        deck,
        solver=args.solver,
        seed=args.seed,
        measure_baseline=args.baseline,
    )
    print(report.format())
    if args.trace is not None:
        count = write_trace(reg, args.trace, fmt=args.format)
        print(f"wrote {count} trace events to {args.trace}")
    return 0


def _cmd_info(args) -> int:
    from repro.lint import lint_deck
    from repro.netlist import parse_semsim

    deck = parse_semsim(args.deck.read_text())
    circuit = deck.build_circuit()
    report = lint_deck(deck)
    print(f"deck: {args.deck}")
    print(f"  junctions:      {circuit.n_junctions}")
    print(f"  islands:        {circuit.n_islands}")
    print(f"  sources:        {len(circuit.sources)}")
    print(f"  temperature:    {deck.temperature} K")
    print(f"  cotunneling:    {'on' if deck.cotunnel else 'off'}")
    print(f"  superconductor: "
          f"{'yes' if deck.superconductor is not None else 'no'}")
    if deck.sweep is not None:
        print(
            f"  sweep:          node {deck.sweep.node} "
            f"+-{deck.sweep.maximum} V step {deck.sweep.step} V"
        )
    summary = report.summary()
    if report.diagnostics:
        summary += f" (run 'repro lint {args.deck}' for details)"
    print(f"  lint:           {summary}")
    try:
        stat = circuit.prepared_electrostatics()[0]
    except CircuitError as exc:
        print(f"  electrostatics: not formed ({exc})")
    else:
        sizes = stat.component_sizes
        store = "dense" if stat.is_dense else "packed per component"
        largest = max(sizes)
        print(f"  components:     {len(sizes)}, the largest "
              f"{largest} island{'s' if largest > 1 else ''}")
        print(f"  C^-1 store:     {stat.cinv_nbytes} bytes "
              f"({stat.cinv_nbytes / 2**20:.1f} MiB, {store})")
    if args.probe > 0:
        from repro.core import AdaptiveSolver, MonteCarloEngine

        engine = MonteCarloEngine(circuit, deck.config())
        engine.run(max_jumps=args.probe)
        if isinstance(engine.solver, AdaptiveSolver):
            print(f"  adaptive step:  {engine.solver.step_path}")
        print(engine.solver.stats.format_table(
            f"solver stats ({args.probe}-event probe)"
        ))
    return 0


def _print_code_table() -> None:
    from repro.lint import CODES

    print(f"{'code':8s} {'severity':8s} meaning")
    for info in CODES.values():
        print(f"{info.code:8s} {str(info.severity):8s} {info.title}")
        print(f"{'':8s} {'':8s}   fix: {info.fix}")


def _cmd_lint(args) -> int:
    from repro.lint import LintReport, lint_benchmark, lint_path

    if args.codes:
        _print_code_table()
        return 0

    reports: list[LintReport] = []
    if args.benchmarks:
        from repro.logic import BENCHMARKS

        reports += [lint_benchmark(spec.name) for spec in BENCHMARKS]
    if args.benchmark is not None:
        reports.append(lint_benchmark(args.benchmark))
    if args.target is not None:
        reports.append(lint_path(args.target, fmt=args.format))
    if not reports:
        print("error: nothing to lint (give a file, --benchmark or "
              "--benchmarks)", file=sys.stderr)
        return 2

    exit_code = 0
    for report in reports:
        for diagnostic in report:
            print(diagnostic.format())
        print(f"{report.subject}: {report.summary()}")
        exit_code = max(exit_code, report.exit_code)
    return exit_code


def _cmd_report(args) -> int:
    from repro.monitor import build_report, default_ledger_path, read_ledger

    if args.ledger is not None and not args.ledger.exists():
        # a named ledger that is missing is a typo, not an empty history
        raise FileNotFoundError(
            errno.ENOENT, "no such ledger", str(args.ledger)
        )
    ledger_path = (
        args.ledger if args.ledger is not None else default_ledger_path()
    )
    report = build_report(
        read_ledger(ledger_path),
        ledger_path=str(ledger_path),
        threshold=args.threshold,
    )
    if args.format == "json":
        print(report.as_json())
    elif args.format == "openmetrics":
        print(report.as_openmetrics(), end="")
    else:
        print(report.format())
    return report.exit_code if args.check else 0


def _cmd_benchmark(args) -> int:
    from repro.logic import build_benchmark

    mapped = build_benchmark(args.name)
    print(f"benchmark: {mapped.netlist.name}")
    print(f"  SET devices: {mapped.n_sets}")
    print(f"  junctions:   {mapped.n_junctions}")
    print(f"  islands:     {mapped.circuit.n_islands}")
    print(f"  gates:       {len(mapped.netlist.gates)} (after mapping)")
    print(f"  inputs:      {len(mapped.netlist.inputs)}")
    print(f"  outputs:     {len(mapped.netlist.outputs)}")
    return 0


def _cmd_benchmarks() -> int:
    from repro.logic import BENCHMARKS

    print("paper benchmarks (Figs. 6-7):")
    for spec in BENCHMARKS:
        print(f"  {spec.name:18s} {spec.junctions:5d} junctions  "
              f"({spec.description})")
    return 0


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "profile":
            return _cmd_profile(args)
        if args.command == "info":
            return _cmd_info(args)
        if args.command == "lint":
            return _cmd_lint(args)
        if args.command == "report":
            return _cmd_report(args)
        if args.command == "benchmark":
            return _cmd_benchmark(args)
        if args.command == "benchmarks":
            return _cmd_benchmarks()
        if args.command == "campaign":
            return _cmd_campaign(args)
        if args.command == "fuzz":
            return _cmd_fuzz(args)
    except (OSError, UnicodeDecodeError) as exc:
        # missing file, permission trouble, undecodable bytes: exit 2
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SemsimError as exc:
        # defective-but-readable input: exit 1, one-line diagnostic.
        # Shard failures arrive as RecoveryError with the worker's
        # exception chained on — print the chain so a retry-exhausted
        # sweep reports its root cause instead of a raw pool traceback.
        print(f"error: {exc}", file=sys.stderr)
        cause = exc.__cause__
        while cause is not None:
            print(
                f"  caused by: {type(cause).__name__}: {cause}",
                file=sys.stderr,
            )
            cause = cause.__cause__
        return 1
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
