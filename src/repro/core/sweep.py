"""Bias sweeps: I-V curves and two-dimensional current maps.

These drive the paper's device-level experiments: the SET/SSET I-V
curves of Fig. 1 (``sweep`` directive of the input format) and the
(bias, gate) contour map of Fig. 5.

Both sweeps are built as *shard/merge* pipelines: the work is cut into
independent units (gate rows for :func:`sweep_map`, voltage chunks for
:func:`sweep_iv`), each unit carries its own spawned seed, and the
units are executed through :func:`repro.parallel.pool.execute_shards`
— inline for ``jobs=1``, across a process pool for ``jobs>1``.  The
shard layout (and therefore the result) is a function of the problem
alone; ``jobs`` only changes how fast the same numbers appear.

:func:`sweep_iv`, :func:`sweep_map` and
:func:`repro.parallel.ensemble_iv` differ only in how they cut their
work into shards; everything else — the campaign store, the run
ledger, the telemetry span, the pool and the merge of solver work and
event hashes — is :func:`run_sweep_shards`.
"""

from __future__ import annotations

import dataclasses
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Sequence

import numpy as np

from repro.circuit.circuit import Circuit
from repro.core.base import SolverStats
from repro.core.config import SimulationConfig
from repro.core.engine import MonteCarloEngine
from repro.dsan.runtime import fold_hashes
from repro.errors import FrozenCircuitError, SimulationError
from repro.monitor.ledger import run_scope
from repro.parallel.pool import execute_shards
from repro.parallel.seeds import spawn_seeds
from repro.recovery.policy import ExecutionPolicy
from repro.telemetry import registry as _telemetry

if TYPE_CHECKING:  # deferred: repro.campaign imports back into core
    from repro.campaign.store import CampaignStore


@dataclasses.dataclass
class IVCurve:
    """One swept I-V characteristic."""

    voltages: np.ndarray
    currents: np.ndarray
    label: str = ""
    #: cumulative solver work behind the curve (``None`` for curves
    #: built outside an engine, e.g. analytical references)
    stats: SolverStats | None = dataclasses.field(
        default=None, compare=False, repr=False
    )
    #: order-sensitive fold of the per-chunk event-stream digests
    #: (``None`` unless the sweep ran with ``event_hash=True``); a pure
    #: function of the shard layout, never of ``jobs``
    event_hash: str | None = dataclasses.field(
        default=None, compare=False, repr=False
    )


@dataclasses.dataclass
class SymmetricBias:
    """Picklable source setter for a symmetric bias: ``+V/2`` / ``-V/2``.

    A plain closure would work serially but cannot cross the process
    boundary of a parallel sweep; a dataclass instance pickles fine.
    """

    source_name: str = "vs"
    drain_name: str = "vd"

    def __call__(self, v: float) -> dict:
        return {self.source_name: +v / 2.0, self.drain_name: -v / 2.0}


def symmetric_bias(
    source_name: str = "vs", drain_name: str = "vd"
) -> Callable[[float], dict]:
    """Source setter for a symmetric bias: ``+V/2`` / ``-V/2``."""
    return SymmetricBias(source_name, drain_name)


# ----------------------------------------------------------------------
# shard work units (module-level and picklable, so a process pool can
# ship them to workers)
# ----------------------------------------------------------------------

@dataclasses.dataclass
class _ShardResult:
    """Currents plus the solver work one shard performed."""

    currents: np.ndarray
    stats: SolverStats
    #: per-shard event-stream digest (``None`` when hashing is off)
    event_hash: str | None = None


@dataclasses.dataclass
class _IVChunk:
    """A contiguous run of sweep points served by one engine.

    The charge state evolves continuously *within* the chunk — exactly
    how a hardware sweep behaves; chunk boundaries restart relaxation
    from scratch with an independent seed.
    """

    index: int
    circuit: Circuit
    config: SimulationConfig
    voltages: np.ndarray
    jumps_per_point: int
    junctions: list[int]
    orientations: list[int] | None
    source_setter: Callable[[float], dict]


def _run_iv_chunk(chunk: _IVChunk) -> _ShardResult:
    """Execute one I-V chunk: the pre-parallel serial loop, verbatim."""
    engine = MonteCarloEngine(chunk.circuit, chunk.config)
    currents = np.empty(len(chunk.voltages))
    with _telemetry.span(
        "sweep.chunk", category="sweep",
        chunk=chunk.index, points=len(chunk.voltages),
    ):
        for i, v in enumerate(chunk.voltages):
            with _telemetry.span("sweep.point", category="sweep", v=float(v)):
                engine.set_sources(chunk.source_setter(float(v)))
                try:
                    currents[i] = engine.measure_current(
                        chunk.junctions, chunk.jumps_per_point,
                        orientations=chunk.orientations,
                    )
                except FrozenCircuitError:
                    # every rate is zero: the circuit is frozen at this
                    # bias (deep blockade at low temperature) and
                    # carries no current.  Any other SimulationError is
                    # a genuine failure and propagates.
                    currents[i] = 0.0
    return _ShardResult(
        currents, dataclasses.replace(engine.solver.stats), engine.event_hash()
    )


@dataclasses.dataclass
class _MapRow:
    """One gate row of a current map: an independent engine sweeping
    the bias at fixed gate voltage."""

    index: int
    circuit: Circuit
    config: SimulationConfig
    gate_voltage: float
    gate_source: str
    bias_voltages: np.ndarray
    jumps_per_point: int
    junctions: list[int]
    orientations: list[int] | None
    bias_setter: Callable[[float], dict]


def _run_map_row(row: _MapRow) -> _ShardResult:
    """Execute one gate row of a current map."""
    engine = MonteCarloEngine(row.circuit, row.config)
    engine.set_sources({row.gate_source: float(row.gate_voltage)})
    currents = np.empty(len(row.bias_voltages))
    with _telemetry.span(
        "sweep.row", category="sweep", vg=float(row.gate_voltage),
    ):
        for bi, vb in enumerate(row.bias_voltages):
            engine.set_sources(row.bias_setter(float(vb)))
            try:
                currents[bi] = engine.measure_current(
                    row.junctions, row.jumps_per_point,
                    orientations=row.orientations,
                )
            except FrozenCircuitError:
                currents[bi] = 0.0
    return _ShardResult(
        currents, dataclasses.replace(engine.solver.stats), engine.event_hash()
    )


def _merge_hashes(results: Sequence[Any]) -> str | None:
    """Fold the per-shard digests in shard order (``None`` when off)."""
    hashes = [r.event_hash for r in results]
    if any(h is None for h in hashes):
        return None
    return fold_hashes([h for h in hashes if h is not None])


def run_sweep_shards(
    kind: str,
    worker: Callable[[Any], Any],
    make_shards: Callable[[SimulationConfig], list[Any]],
    circuit: Circuit,
    config: SimulationConfig | None,
    values: np.ndarray,
    jumps_per_point: int,
    *,
    span: tuple[str, str, dict[str, Any]],
    label: str = "",
    jobs: int | None = 1,
    policy: ExecutionPolicy | None = None,
    campaign: "CampaignStore | str | Path | None" = None,
    chunks: int | None = None,
    replicas: int | None = None,
) -> tuple[list[Any], SolverStats, str | None]:
    """Run one sweep's shards; the single execution path of every sweep.

    ``make_shards(config)`` cuts the work into picklable payloads for
    ``worker``; each result must carry ``stats`` and ``event_hash``.
    With ``campaign`` (a :class:`repro.campaign.CampaignStore` or its
    directory) event hashing is forced before the shards are cut, so
    cached and computed shards are interchangeable, and every shard is
    looked up in the store before it runs and stored when it finishes:
    a rerun of an interrupted sweep computes only the missing shards.
    ``span`` is the ``(name, category, attributes)`` of the telemetry
    span around the pool; ``kind``, ``values``, ``label``, ``chunks``
    and ``replicas`` identify the run in the ledger and the store.

    Returns the results in shard order, their merged
    :class:`~repro.core.base.SolverStats` and the fold-order combined
    event hash (``None`` unless hashing was on).
    """
    cfg = config if config is not None else SimulationConfig()
    if campaign is not None:
        cfg = cfg.replace(event_hash=True)
    shards = make_shards(cfg)
    cache = None
    if campaign is not None:
        from repro.campaign.store import bind_sweep_cache

        cache = bind_sweep_cache(
            campaign, circuit, cfg, kind=kind,
            values=values, jumps_per_point=jumps_per_point, label=label,
        )
    with run_scope(kind) as recorder:
        name, category, attrs = span
        with _telemetry.span(name, category=category, **attrs):
            results = execute_shards(
                worker, shards, jobs=jobs, policy=policy, cache=cache,
            )
        stats = SolverStats().merge(*(r.stats for r in results))
        event_hash = _merge_hashes(results)
        if recorder is not None:
            recorder.commit(
                circuit=circuit, config=cfg, values=values,
                jumps_per_point=jumps_per_point, label=label,
                jobs=jobs, chunks=chunks, replicas=replicas,
                event_hash=event_hash,
            )
    return results, stats, event_hash


# ----------------------------------------------------------------------
# public sweeps
# ----------------------------------------------------------------------

def sweep_iv(
    circuit: Circuit,
    voltages: Sequence[float],
    config: SimulationConfig | None = None,
    jumps_per_point: int = 4000,
    measure_junctions: Sequence[int] = (0,),
    orientations: Sequence[int] | None = None,
    source_setter: Callable[[float], dict] | None = None,
    label: str = "",
    *,
    chunks: int = 1,
    jobs: int | None = 1,
    policy: ExecutionPolicy | None = None,
    campaign: "CampaignStore | str | Path | None" = None,
) -> IVCurve:
    """Sweep a bias and measure the device current at each point.

    Parameters
    ----------
    voltages:
        Sweep values (V).
    source_setter:
        Maps a sweep value to a ``{source_name: voltage}`` dict.  The
        default assumes the :func:`repro.circuit.build_set` convention:
        a symmetric bias splitting ``V`` into ``vs = +V/2`` and
        ``vd = -V/2`` (the ``symm`` directive).  Must be picklable
        (module-level function or callable instance) when the sweep is
        chunked across processes.
    measure_junctions, orientations:
        Junctions whose (orientation-corrected) currents are averaged.
    jumps_per_point:
        Tunnel events per sweep point; 20% are discarded as warm-up.
    chunks:
        Number of contiguous voltage chunks.  One engine serves each
        chunk, so the charge state carries over between the points of
        a chunk — exactly how a hardware sweep behaves and how the
        paper's ``sweep`` directive is implemented.  The default
        (one chunk) is byte-identical to the historical serial sweep;
        more chunks trade that continuity at the seams for parallelism.
        Each chunk beyond the first draws its own spawned seed.
    jobs:
        Worker processes executing the chunks (``None``/``0`` = all
        cores).  For a fixed ``chunks`` the result is bit-identical for
        every ``jobs`` value — only the wall-clock changes.
    policy:
        A :class:`repro.recovery.ExecutionPolicy` controlling per-chunk
        retry, timeout and pool-rebuild behaviour.
    campaign:
        A :class:`repro.campaign.CampaignStore` (or its directory
        path): every chunk is first looked up in the durable
        content-addressed store and freshly computed chunks are
        persisted as they land, so rerunning an interrupted sweep
        computes only the missing chunks, and rerunning a finished one
        computes nothing; either way the curve is bit-identical.
        Forces event-stream hashing (the cache's bit-identity oracle).
    """
    if source_setter is None:
        source_setter = symmetric_bias()
    if chunks < 1:
        raise SimulationError(f"chunks must be >= 1, got {chunks}")
    volts = np.asarray(voltages, dtype=float)
    n_chunks = max(1, min(chunks, len(volts)))
    pieces = np.array_split(volts, n_chunks)

    def make_shards(cfg: SimulationConfig) -> list[_IVChunk]:
        if n_chunks == 1:
            # the historical serial path: the root seed drives the
            # single engine directly, bit-for-bit as before sharding
            shard_configs = [cfg]
        else:
            shard_configs = [
                cfg.replace(seed=s) for s in spawn_seeds(cfg.seed, n_chunks)
            ]
        return [
            _IVChunk(
                index=i,
                circuit=circuit,
                config=shard_configs[i],
                voltages=pieces[i],
                jumps_per_point=jumps_per_point,
                junctions=list(measure_junctions),
                orientations=(
                    list(orientations) if orientations is not None else None
                ),
                source_setter=source_setter,
            )
            for i in range(n_chunks)
        ]

    results, stats, event_hash = run_sweep_shards(
        "sweep_iv", _run_iv_chunk, make_shards, circuit, config, volts,
        jumps_per_point,
        span=(
            "sweep.iv", "sweep",
            {"points": len(volts), "label": label, "chunks": n_chunks},
        ),
        label=label, jobs=jobs, policy=policy, campaign=campaign,
        chunks=n_chunks,
    )
    currents = (
        np.concatenate([r.currents for r in results])
        if results else np.empty(0)
    )
    return IVCurve(volts, currents, label, stats=stats, event_hash=event_hash)


def sweep_master_iv(
    circuit: Circuit,
    voltages: Sequence[float],
    *,
    temperature: float,
    source_setter: Callable[[float], dict] | None = None,
    measure_junctions: Sequence[int] = (0,),
    orientations: Sequence[int] | None = None,
    include_cotunneling: bool = False,
    max_states: int = 4000,
    label: str = "",
) -> IVCurve:
    """Exact master-equation I-V curve over the same sweep layout.

    The deterministic sibling of :func:`sweep_iv`: one
    :class:`~repro.master.solver.MasterEquationSolver` steady-state
    solve per point, with the recorded-junction currents averaged under
    the same ``orientations`` convention as
    :meth:`~repro.core.engine.MonteCarloEngine.measure_current` — so an
    MC curve and a master curve over the same deck are directly
    comparable, point by point.  This is the reference oracle of the
    differential fuzzer (:mod:`repro.gen`).

    There is no seed, no chunking and no event hash: the curve is a
    pure function of the circuit and the sweep values.
    """
    from repro.master.solver import MasterEquationSolver

    if source_setter is None:
        source_setter = symmetric_bias()
    junctions = list(measure_junctions)
    if not junctions:
        raise SimulationError("sweep_master_iv needs at least one junction")
    orient = (
        list(orientations) if orientations is not None else [1] * len(junctions)
    )
    if len(orient) != len(junctions):
        raise SimulationError("orientations must match junctions in length")
    index_of = {s.name: k + 1 for k, s in enumerate(circuit.sources)}
    solver = MasterEquationSolver(
        circuit,
        temperature,
        include_cotunneling=include_cotunneling,
        max_states=max_states,
    )
    volts = np.asarray(voltages, dtype=float)
    currents = np.empty_like(volts)
    with _telemetry.span(
        "sweep.master_iv", category="sweep", points=len(volts), label=label,
    ):
        for i, v in enumerate(volts):
            vext = circuit.external_voltages()
            for name, value in source_setter(float(v)).items():
                if name not in index_of:
                    raise SimulationError(f"unknown source: {name!r}")
                vext[index_of[name]] = value
            result = solver.steady_state(vext)
            currents[i] = float(
                np.mean(
                    [
                        o * result.junction_currents[j]
                        for j, o in zip(junctions, orient)
                    ]
                )
            )
    return IVCurve(volts, currents, label or "master equation")


@dataclasses.dataclass
class CurrentMap:
    """2-D current map over (bias, gate), Fig. 5 style."""

    bias_voltages: np.ndarray
    gate_voltages: np.ndarray
    #: shape (len(gate_voltages), len(bias_voltages))
    currents: np.ndarray
    #: solver work merged across the per-row engines
    stats: SolverStats | None = dataclasses.field(
        default=None, compare=False, repr=False
    )
    #: order-sensitive fold of the per-row event-stream digests
    #: (``None`` unless the map ran with ``event_hash=True``)
    event_hash: str | None = dataclasses.field(
        default=None, compare=False, repr=False
    )


def sweep_map(
    circuit: Circuit,
    bias_voltages: Sequence[float],
    gate_voltages: Sequence[float],
    config: SimulationConfig | None = None,
    jumps_per_point: int = 3000,
    measure_junctions: Sequence[int] = (0,),
    orientations: Sequence[int] | None = None,
    bias_setter: Callable[[float], dict] | None = None,
    gate_source: str = "vg",
    *,
    jobs: int | None = 1,
    policy: ExecutionPolicy | None = None,
    campaign: "CampaignStore | str | Path | None" = None,
) -> CurrentMap:
    """Monte Carlo current map over a (bias, gate) grid.

    One engine per gate row; the bias is swept within the row so the
    charge state evolves continuously, as in the measurement the paper
    reproduces from [17].  Every row draws an independent seed spawned
    from ``config.seed`` — rows are decorrelated MC experiments, and
    the map is bit-identical for every ``jobs`` value.  ``policy`` adds
    per-row retry/timeout fault tolerance; ``campaign`` keeps completed
    rows in the durable content-addressed store (and forces event
    hashing), so a rerun of an interrupted map computes only the
    missing rows and a rerun of a finished one computes nothing.
    """
    if not len(bias_voltages) or not len(gate_voltages):
        raise SimulationError("sweep_map needs non-empty grids")
    if bias_setter is None:
        bias_setter = symmetric_bias()
    biases = np.asarray(bias_voltages, dtype=float)
    gates = np.asarray(gate_voltages, dtype=float)

    def make_shards(cfg: SimulationConfig) -> list[_MapRow]:
        # independent per-row seeds: with a shared seed every row would
        # replay the identical RNG stream and their MC noise would be
        # perfectly correlated
        row_seeds = spawn_seeds(cfg.seed, len(gates))
        return [
            _MapRow(
                index=gi,
                circuit=circuit,
                config=cfg.replace(seed=row_seeds[gi]),
                gate_voltage=float(vg),
                gate_source=gate_source,
                bias_voltages=biases,
                jumps_per_point=jumps_per_point,
                junctions=list(measure_junctions),
                orientations=(
                    list(orientations) if orientations is not None else None
                ),
                bias_setter=bias_setter,
            )
            for gi, vg in enumerate(gates)
        ]

    results, stats, event_hash = run_sweep_shards(
        "sweep_map", _run_map_row, make_shards, circuit, config,
        np.concatenate([biases, gates]), jumps_per_point,
        span=(
            "sweep.map", "sweep", {"rows": len(gates), "points": len(biases)},
        ),
        jobs=jobs, policy=policy, campaign=campaign, chunks=len(gates),
    )
    currents = np.vstack([r.currents for r in results])
    return CurrentMap(
        biases, gates, currents, stats=stats, event_hash=event_hash,
    )
