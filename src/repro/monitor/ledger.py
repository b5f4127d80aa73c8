"""The persistent run ledger: one JSONL record per simulation run.

Every ``deck.run`` / ``sweep_iv`` / ``sweep_map`` / ``ensemble_iv``
invocation executed while a ledger is installed appends one structured
record — the durable identity card of the run the future campaign
cache will key on:

``run_id``
    Unique id derived from the fingerprint, seed, time and pid.
``fingerprint``
    Content hash of the *workload*: the circuit's components, the
    sweep values, the per-point event budget and the physics knobs —
    everything that defines the problem, nothing that merely tunes its
    execution (seed, jobs, chunks and solver are separate fields).
``events`` / ``events_per_second`` / ``wall_seconds`` / ``solver``
    The per-solver throughput trajectory ``repro report`` matches
    across runs.  ``events`` counts only events simulated by this run
    (the ``solver.events`` delta of the run's telemetry registry), so a
    rerun served from the campaign store records 0.
``counters``
    Pool and cache activity: shard retries, pool rebuilds, campaign
    cell hits and cells computed (older records may also carry
    ``resume_hits``; :mod:`repro.monitor.report` ignores it).
``event_hash``
    The dsan combined event-stream hash when the run maintained one.

The ledger lives at ``~/.cache/repro/ledger.jsonl`` by default; the
``REPRO_LEDGER`` environment variable or an explicit path overrides
it.  Appends are single ``write`` calls of one line each, and
:func:`read_ledger` tolerates a torn final line, so a crash mid-append
never corrupts the history.

Recording is opt-in at the library level: install a ledger with
:func:`ledger_session` (the CLI does this for every ``repro run``
unless ``--no-ledger``), and :func:`run_scope` becomes a no-op
otherwise.  A recorded run always has a telemetry registry: the scope
opens a metrics-only session when none is active, which costs nothing
per event.  Nested invocations (an ensemble's inner sweeps, a deck's
inner ensemble) are suppressed — one user-visible run, one record.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
from contextlib import contextmanager, nullcontext
from pathlib import Path
from typing import TYPE_CHECKING, Any, Iterator, Sequence

from repro.telemetry import registry as _telemetry
from repro.telemetry.clock import utc_time, wall_time

if TYPE_CHECKING:  # import cycle guard: circuit/config are heavy imports
    from repro.circuit.circuit import Circuit
    from repro.core.config import SimulationConfig

#: Ledger record schema version (bump on incompatible field changes).
SCHEMA_VERSION = 1

#: Recovery/pool/cache counters copied from the parent telemetry
#: registry into each record (deltas over the run).
TRACKED_COUNTERS = (
    "recovery.shards_retried",
    "recovery.pool_rebuilds",
    "campaign.cell_hits",
    "campaign.cells_computed",
)


def repro_cache_dir() -> Path:
    """The durable per-user cache root shared by the run ledger and the
    campaign result store.

    ``$REPRO_CACHE_DIR`` when set, else ``~/.cache/repro``.  Service and
    CI containers frequently run without a usable ``$HOME`` — either
    ``Path.home()`` raises outright or resolves to ``/`` — and in that
    case the cache falls back to a repo-local ``.repro/`` directory
    instead of failing the run or scattering state under the root
    directory.
    """
    override = os.environ.get("REPRO_CACHE_DIR")
    if override:
        return Path(override)
    try:
        home: Path | None = Path.home()
    except (KeyError, RuntimeError, OSError):
        home = None
    if home is None or str(home) in ("", "/"):
        return Path(".repro")
    return home / ".cache" / "repro"


def default_ledger_path() -> Path:
    """``$REPRO_LEDGER`` when set, else ``<cache dir>/ledger.jsonl``
    (see :func:`repro_cache_dir` for the no-``$HOME`` fallback)."""
    override = os.environ.get("REPRO_LEDGER")
    if override:
        path = Path(override)
        try:
            return path.expanduser()
        except RuntimeError:
            # "~" with no resolvable home: use the path verbatim
            return path
    return repro_cache_dir() / "ledger.jsonl"


# ----------------------------------------------------------------------
# fingerprints
# ----------------------------------------------------------------------

def _hash_text(text: str) -> str:
    return hashlib.blake2b(text.encode("utf-8"), digest_size=16).hexdigest()


def fingerprint_circuit(circuit: "Circuit") -> str:
    """Content hash of a frozen circuit's components.

    Dataclass reprs are stable (``repr(float)`` is the shortest
    round-trip form), so the same circuit fingerprints identically
    across processes, machines and sessions.
    """
    parts = [
        repr(circuit.junctions),
        repr(circuit.capacitors),
        repr(circuit.sources),
        repr(circuit.background_charges),
        repr(circuit.superconductor),
    ]
    return _hash_text("\n".join(parts))


def _config_identity(config: "SimulationConfig") -> str:
    """The physics knobs of a config — not its seed, solver choice or
    bookkeeping flags, which vary between runs of the same workload."""
    skip = {"seed", "solver", "event_hash"}
    fields = {
        field.name: getattr(config, field.name)
        for field in dataclasses.fields(config)
        if field.name not in skip
    }
    return repr(sorted(fields.items()))


def fingerprint_workload(
    circuit: "Circuit",
    config: "SimulationConfig",
    *,
    kind: str,
    values: Any = None,
    jumps_per_point: int = 0,
    extra: Sequence[str] = (),
) -> str:
    """Fingerprint of one runnable workload: circuit + sweep shape +
    event budget + physics configuration.

    ``extra`` appends further identity parts (the campaign layer adds
    the solver, measured junctions and parameter-space axes); an empty
    ``extra`` leaves historical fingerprints unchanged.
    """
    parts = [
        fingerprint_circuit(circuit),
        _config_identity(config),
        kind,
        repr([float(v) for v in values] if values is not None else None),
        str(int(jumps_per_point)),
    ]
    parts.extend(str(part) for part in extra)
    return _hash_text("\n".join(parts))


# ----------------------------------------------------------------------
# the ledger object
# ----------------------------------------------------------------------

def _detect_code_version() -> str:
    """``<package version>+<git short sha>`` when available."""
    from repro import __version__

    version = __version__
    try:
        import subprocess

        root = Path(__file__).resolve().parents[3]
        probe = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=root, capture_output=True, text=True, timeout=5.0,
        )
        if probe.returncode == 0 and probe.stdout.strip():
            return f"{version}+{probe.stdout.strip()}"
    except (OSError, subprocess.SubprocessError):
        pass
    return version


class Ledger:
    """Appends run records to one JSONL file."""

    def __init__(self, path: str | Path | None = None) -> None:
        self.path = Path(path) if path is not None else default_ledger_path()
        self.code_version = _detect_code_version()
        self._sequence = 0
        self._depth = 0

    def append(self, record: dict[str, Any]) -> None:
        """Append one record as one ``os.write`` on an ``O_APPEND`` fd.

        Buffered text appends can interleave *partial* lines when two
        runs (different processes sharing one ledger — exactly the
        overlapping-user scenario the campaign cache serves) flush
        concurrently, corrupting more than the tolerated torn final
        line.  A single ``write(2)`` on an ``O_APPEND`` descriptor is
        atomic with respect to the file offset, so concurrent appends
        produce whole interleaved lines and a crash mid-append tears at
        most the final one.
        """
        self.path.parent.mkdir(parents=True, exist_ok=True)
        data = (json.dumps(record, sort_keys=True) + "\n").encode("utf-8")
        fd = os.open(
            str(self.path), os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o644
        )
        try:
            os.write(fd, data)
        finally:
            os.close(fd)

    def next_run_id(self, fingerprint: str, timestamp: float) -> str:
        self._sequence += 1
        raw = f"{fingerprint}:{timestamp!r}:{os.getpid()}:{self._sequence}"
        return _hash_text(raw)


def read_ledger(path: str | Path) -> list[dict[str, Any]]:
    """Read every intact record; a torn or corrupt line (crash during
    append) is skipped rather than fatal."""
    records: list[dict[str, Any]] = []
    ledger_file = Path(path)
    if not ledger_file.exists():
        return records
    with open(ledger_file, encoding="utf-8", errors="replace") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except ValueError:
                continue
            if isinstance(record, dict):
                records.append(record)
    return records


# ----------------------------------------------------------------------
# active-ledger plumbing (parent-side only)
# ----------------------------------------------------------------------

#: The installed ledger; ``None`` disables recording.  Only ever set in
#: the parent process (CLI / user session) — pool workers never install
#: one, so library calls inside workers record nothing.
_ACTIVE: Ledger | None = None


def active_ledger() -> Ledger | None:
    """The installed ledger, or ``None`` while recording is off."""
    return _ACTIVE


def set_ledger(ledger: Ledger | None) -> Ledger | None:
    """Install ``ledger``; returns the previous one."""
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = ledger
    return previous


@contextmanager
def ledger_session(path: str | Path | None = None) -> Iterator[Ledger]:
    """Scoped recording: install a :class:`Ledger`, restore the
    previous one (usually ``None``) on exit."""
    ledger = Ledger(path)
    previous = set_ledger(ledger)
    try:
        yield ledger
    finally:
        set_ledger(previous)


class RunRecorder:
    """Collects one run's identity and outcome, then appends the record.

    Created by :func:`run_scope`; the owning entry point calls
    :meth:`commit` with the workload identity once the run finishes.
    A recorder snapshots the run's registry counters (``solver.events``
    and :data:`TRACKED_COUNTERS`) at creation so the record carries
    this run's deltas, not the session's cumulative totals.
    """

    def __init__(
        self, ledger: Ledger, kind: str,
        registry: _telemetry.TelemetryRegistry,
    ) -> None:
        self._ledger = ledger
        self.kind = kind
        self._t0 = wall_time()
        self._registry = registry
        self._base = {
            name: registry.peek_counter(name)
            for name in ("solver.events",) + TRACKED_COUNTERS
        }

    def _delta(self, name: str) -> int:
        return self._registry.peek_counter(name) - self._base[name]

    def commit(
        self,
        *,
        circuit: "Circuit",
        config: "SimulationConfig",
        values: Any = None,
        jumps_per_point: int = 0,
        label: str = "",
        solver: str | None = None,
        seed: Any = None,
        jobs: Any = None,
        chunks: int | None = None,
        replicas: int | None = None,
        event_hash: str | None = None,
    ) -> dict[str, Any]:
        """Build and append this run's record; returns it."""
        from repro.parallel.seeds import describe_seed

        wall = wall_time() - self._t0
        timestamp = utc_time()
        fingerprint = fingerprint_workload(
            circuit, config, kind=self.kind,
            values=values, jumps_per_point=jumps_per_point,
        )
        events = self._delta("solver.events")
        record: dict[str, Any] = {
            "schema": SCHEMA_VERSION,
            "run_id": self._ledger.next_run_id(fingerprint, timestamp),
            "ts": timestamp,
            "kind": self.kind,
            "label": label,
            "fingerprint": fingerprint,
            "solver": solver if solver is not None else config.solver,
            "seed": describe_seed(seed if seed is not None else config.seed),
            "jobs": jobs,
            "chunks": chunks,
            "replicas": replicas,
            "points": len(values) if values is not None else 1,
            "code_version": self._ledger.code_version,
            "wall_seconds": wall,
            "events": events,
            "events_per_second": events / wall if wall > 0.0 else 0.0,
            "counters": {
                name.split(".", 1)[1]: self._delta(name)
                for name in TRACKED_COUNTERS
            },
            "event_hash": event_hash,
        }
        self._ledger.append(record)
        return record


@contextmanager
def run_scope(kind: str) -> Iterator[RunRecorder | None]:
    """Recording scope for one library entry point.

    Yields a :class:`RunRecorder` when an active ledger is installed
    and this is the *outermost* scope, ``None`` otherwise — so an
    ensemble's inner ``sweep_iv`` calls (or a deck's inner ensemble)
    never append their own records.  The depth guard lives on the
    ledger object and is only ever touched in the process that
    installed it; pool workers see no active ledger at all.
    """
    ledger = _ACTIVE
    if ledger is None or ledger._depth > 0:
        yield None
        return
    active = _telemetry.ACTIVE
    scope = (
        nullcontext(active) if active is not None
        else _telemetry.session(trace=False)
    )
    ledger._depth += 1
    try:
        with scope as registry:
            yield RunRecorder(ledger, kind, registry)
    finally:
        ledger._depth -= 1
