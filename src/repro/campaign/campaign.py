"""Parameter-space campaigns over the content-addressed result store.

Modeled on the ns-3 ``sem`` campaign manager: a campaign is one
workload (circuit + physics configuration + measurement protocol)
crossed with an explicit :class:`ParameterSpace` and a replica count.
:meth:`Campaign.run_missing` diffs the requested (parameter point,
replica) grid against the store and schedules *only the missing cells*
onto the resilient :func:`repro.parallel.pool.execute_shards` pool —
inheriting its retry policy, dsan verification and monitor progress —
persisting each freshly computed cell as it lands.  A second identical
run computes nothing; an overlapping grid computes only its new cells.

Three identity layers make the cache sound:

* the **workload fingerprint** (:func:`fingerprint_workload` with the
  campaign's ``extra`` parts) keys the store directory: circuit
  physics, solver, events per point and the measurement protocol —
  *not* the dimension values, so overlapping grids share cells;
* the **cell key** hashes the parameter point, the replica index and
  the cell's spawned seed identity;
* the **cell seed** is spawned at a *content-derived* coordinate
  (:func:`repro.parallel.seeds.spawn_seed_at` with a key hashed from
  the point itself), so the same physical cell draws the same RNG
  stream in every grid that contains it — cached and recomputed cells
  are bit-identical, which the folded dsan event hash can prove.

Results query back as dense numpy arrays (axes = parameter dimensions
in declaration order, then replicas); :meth:`Campaign.to_xarray`
returns a labelled ``xarray.DataArray`` when xarray is installed.
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
from pathlib import Path
from typing import Any, Callable, Iterator, Mapping, Sequence

import numpy as np

from repro.campaign.store import CELL_SCHEMA, CacheSession, CampaignStore
from repro.circuit.circuit import Circuit
from repro.core.base import SolverStats
from repro.core.config import SimulationConfig
from repro.core.engine import MonteCarloEngine
from repro.dsan.runtime import fold_hashes
from repro.errors import CampaignError, FrozenCircuitError
from repro.monitor.ledger import fingerprint_workload, run_scope
from repro.parallel.pool import execute_shards
from repro.parallel.seeds import describe_seed, spawn_seed_at
from repro.recovery.policy import ExecutionPolicy
from repro.telemetry import registry as _telemetry

#: A parameter point: ``((name, value), ...)`` pairs in dimension
#: declaration order — hashable, with a stable repr for content keys.
Point = tuple[tuple[str, float], ...]


class ParameterSpace:
    """An explicit, ordered cartesian grid of named parameter axes."""

    def __init__(self, dims: Mapping[str, Sequence[float]]):
        if not dims:
            raise CampaignError(
                "a parameter space needs at least one dimension"
            )
        self.names: tuple[str, ...] = tuple(str(name) for name in dims)
        if len(set(self.names)) != len(self.names):
            raise CampaignError(
                f"duplicate parameter dimension in {self.names!r}"
            )
        values = []
        for name in self.names:
            axis = np.asarray(dims[name], dtype=float)
            if axis.ndim != 1 or axis.size == 0:
                raise CampaignError(
                    f"dimension {name!r} must be a non-empty 1-D sequence"
                )
            values.append(axis)
        self.values: tuple[np.ndarray, ...] = tuple(values)

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(len(axis) for axis in self.values)

    @property
    def size(self) -> int:
        return int(np.prod(self.shape))

    def points(self) -> Iterator[Point]:
        """Every grid point in C (row-major) order."""
        for combo in itertools.product(*self.values):
            yield tuple(
                (name, float(v)) for name, v in zip(self.names, combo)
            )

    def __repr__(self) -> str:
        axes = ", ".join(
            f"{name}[{len(axis)}]"
            for name, axis in zip(self.names, self.values)
        )
        return f"ParameterSpace({axes})"


@dataclasses.dataclass
class PointSources:
    """Picklable default source setter: dimension names *are* source
    names, optionally renamed (e.g. ``{'vg': 'v3'}`` to drive deck node
    3 from a dimension called ``vg``)."""

    rename: dict[str, str] = dataclasses.field(default_factory=dict)

    def __call__(self, point: Mapping[str, float]) -> dict[str, float]:
        return {
            self.rename.get(name, name): float(value)
            for name, value in point.items()
        }


# ----------------------------------------------------------------------
# the cell: one (parameter point, replica) measurement
# ----------------------------------------------------------------------

@dataclasses.dataclass
class CellResult:
    """One cell's measured current plus the solver work behind it."""

    current: float
    stats: SolverStats
    #: the cell's dsan event-stream digest (campaigns always hash)
    event_hash: str | None = None


@dataclasses.dataclass
class CampaignCell:
    """Picklable payload for one campaign cell."""

    index: int
    circuit: Circuit
    config: SimulationConfig
    sources: dict[str, float]
    point: Point
    replica: int
    jumps_per_point: int
    junctions: list[int]
    orientations: list[int] | None


def _run_campaign_cell(cell: CampaignCell) -> CellResult:
    """Execute one cell: set the point's sources, measure the current."""
    engine = MonteCarloEngine(cell.circuit, cell.config)
    with _telemetry.span(
        "campaign.cell", category="campaign",
        cell=cell.index, replica=cell.replica,
    ):
        engine.set_sources(cell.sources)
        try:
            current = engine.measure_current(
                cell.junctions, cell.jumps_per_point,
                orientations=cell.orientations,
            )
        except FrozenCircuitError:
            # deep blockade carries no current; same convention as the
            # sweep shards
            current = 0.0
    return CellResult(
        float(current),
        dataclasses.replace(engine.solver.stats),
        engine.event_hash(),
    )


def _point_spawn_key(point: Point) -> tuple[int, int]:
    """A content-derived spawn-key coordinate for one parameter point.

    Hashing the point (rather than enumerating grid positions) is what
    decouples a cell's RNG stream from the grid it appears in.
    """
    digest = hashlib.blake2b(
        repr(point).encode("utf-8"), digest_size=8
    ).digest()
    return (
        int.from_bytes(digest[:4], "big"),
        int.from_bytes(digest[4:], "big"),
    )


def cell_key(
    point: Point,
    replica: int,
    seed: Any,
    jumps_per_point: int,
) -> str:
    """The content address of one cell inside its workload directory."""
    raw = (
        f"cell|{point!r}|{int(replica)}|{describe_seed(seed)}|"
        f"{int(jumps_per_point)}|{CELL_SCHEMA}"
    )
    return hashlib.blake2b(raw.encode("utf-8"), digest_size=16).hexdigest()


@dataclasses.dataclass
class _FixedKeyCache:
    """A :class:`~repro.parallel.pool.ShardCache` whose cell keys were
    computed up front by the campaign (content keys, not payload
    digests)."""

    session: CacheSession

    def begin(
        self, worker: Callable[..., Any], payloads: list[Any]
    ) -> CacheSession:
        if len(payloads) != len(self.session.keys):
            raise CampaignError(
                f"campaign cache session covers {len(self.session.keys)} "
                f"cell(s) but the batch has {len(payloads)}"
            )
        return self.session


# ----------------------------------------------------------------------
# the campaign manager
# ----------------------------------------------------------------------

@dataclasses.dataclass
class CampaignStatus:
    """How much of a campaign's grid is already in the store."""

    fingerprint: str
    total: int
    present: int

    @property
    def missing(self) -> int:
        return self.total - self.present

    def format(self) -> str:
        return (
            f"workload {self.fingerprint}: {self.present}/{self.total} "
            f"cell(s) in store, {self.missing} missing"
        )


@dataclasses.dataclass
class CampaignRun:
    """Outcome of one :meth:`Campaign.run_missing` call."""

    fingerprint: str
    shape: tuple[int, ...]
    replicas: int
    #: cells served straight from the store
    cached: int
    #: cells actually simulated by this call
    computed: int
    #: axes = parameter dimensions in order, then replicas
    currents: np.ndarray
    stats: SolverStats | None = dataclasses.field(
        default=None, compare=False, repr=False
    )
    #: order-sensitive fold of every cell's event digest — identical
    #: whether the cells were computed or replayed from the store
    event_hash: str | None = dataclasses.field(
        default=None, compare=False, repr=False
    )

    @property
    def total(self) -> int:
        return self.cached + self.computed

    def format(self) -> str:
        return (
            f"campaign {self.fingerprint}: {self.total} cell(s) = "
            f"{self.cached} cached + {self.computed} computed; "
            f"grid {self.shape} x {self.replicas} replica(s)"
        )


class Campaign:
    """One workload crossed with a parameter space and replica count.

    Parameters
    ----------
    circuit, config:
        The device and its physics configuration.  ``config.seed`` is
        the campaign's *root* seed: every cell's seed is spawned from
        it at a content-derived coordinate, so cells are independent MC
        experiments yet bit-reproducible across grids.  Event-stream
        hashing is always forced on — it is the oracle that proves a
        cached cell equals a recomputed one.
    space:
        A :class:`ParameterSpace` (or plain ``{name: values}`` mapping).
    replicas:
        Independent repetitions per parameter point.
    source_setter:
        Maps a ``{dim name: value}`` point to engine source targets;
        defaults to :class:`PointSources` (names map straight through).
        Must be picklable for parallel execution.
    store:
        A :class:`CampaignStore`, a directory path, or ``None`` for the
        default store root.
    """

    def __init__(
        self,
        circuit: Circuit,
        space: ParameterSpace | Mapping[str, Sequence[float]],
        config: SimulationConfig | None = None,
        *,
        replicas: int = 1,
        jumps_per_point: int = 4000,
        measure_junctions: Sequence[int] = (0,),
        orientations: Sequence[int] | None = None,
        source_setter: Callable[[Mapping[str, float]], dict[str, float]]
        | None = None,
        label: str = "",
        store: CampaignStore | str | Path | None = None,
    ):
        if replicas < 1:
            raise CampaignError(f"replicas must be >= 1, got {replicas}")
        if jumps_per_point < 1:
            raise CampaignError(
                f"jumps_per_point must be >= 1, got {jumps_per_point}"
            )
        self.circuit = circuit
        self.space = (
            space if isinstance(space, ParameterSpace)
            else ParameterSpace(space)
        )
        cfg = config if config is not None else SimulationConfig()
        #: event hashing is part of the campaign contract, so the
        #: fingerprint (computed from this config) is hash-mode-stable
        self.config = cfg.replace(event_hash=True)
        self.replicas = replicas
        self.jumps_per_point = jumps_per_point
        self.junctions = list(measure_junctions)
        self.orientations = (
            list(orientations) if orientations is not None else None
        )
        self.source_setter = (
            source_setter if source_setter is not None else PointSources()
        )
        self.label = label
        self.store = (
            store if isinstance(store, CampaignStore)
            else CampaignStore(store)
        )
        # dimension *names* are identity (they select the sources);
        # their values are not, so overlapping grids share a workload
        self.fingerprint = fingerprint_workload(
            circuit, self.config, kind="campaign",
            values=None, jumps_per_point=jumps_per_point,
            extra=(
                f"solver={self.config.solver}",
                f"junctions={self.junctions!r}",
                f"orientations={self.orientations!r}",
                f"dims={self.space.names!r}",
                f"setter={self.source_setter!r}",
            ),
        )

    # ------------------------------------------------------------------
    def _cells(
        self,
    ) -> tuple[list[CampaignCell], list[str], list[dict[str, Any]]]:
        """The full grid in canonical order: points (C order) × replicas."""
        cells: list[CampaignCell] = []
        keys: list[str] = []
        meta: list[dict[str, Any]] = []
        index = 0
        for point in self.space.points():
            coord = _point_spawn_key(point)
            for replica in range(self.replicas):
                seed = spawn_seed_at(
                    self.config.seed, coord + (replica,)
                )
                cells.append(
                    CampaignCell(
                        index=index,
                        circuit=self.circuit,
                        config=self.config.replace(seed=seed),
                        sources=self.source_setter(dict(point)),
                        point=point,
                        replica=replica,
                        jumps_per_point=self.jumps_per_point,
                        junctions=list(self.junctions),
                        orientations=(
                            list(self.orientations)
                            if self.orientations is not None else None
                        ),
                    )
                )
                keys.append(
                    cell_key(point, replica, seed, self.jumps_per_point)
                )
                meta.append(
                    {
                        "point": {name: value for name, value in point},
                        "replica": replica,
                        "seed": describe_seed(seed),
                    }
                )
                index += 1
        return cells, keys, meta

    def _workload_meta(self) -> dict[str, Any]:
        return {
            "kind": "campaign",
            "label": self.label,
            "dims": list(self.space.names),
            "solver": self.config.solver,
            "jumps_per_point": self.jumps_per_point,
            "junctions": self.junctions,
        }

    def _session(
        self, keys: list[str], meta: list[dict[str, Any]]
    ) -> CacheSession:
        from repro.monitor.ledger import _detect_code_version

        workload = self.store.workload(self.fingerprint)
        workload.describe(self._workload_meta())
        return CacheSession(
            workload, keys, meta, code_version=_detect_code_version()
        )

    # ------------------------------------------------------------------
    def status(self) -> CampaignStatus:
        """Cheap grid-vs-store diff (existence only, no decoding)."""
        _, keys, _ = self._cells()
        workload = self.store.workload(self.fingerprint)
        present = sum(
            1 for key in keys if workload.cell_path(key).exists()
        )
        return CampaignStatus(
            fingerprint=self.fingerprint,
            total=len(keys),
            present=present,
        )

    def run_missing(
        self,
        *,
        jobs: int | None = 1,
        policy: ExecutionPolicy | None = None,
    ) -> CampaignRun:
        """Compute every cell not yet in the store; return the full grid.

        Cached cells are replayed from the store without simulation;
        missing cells run on the ``execute_shards`` pool (``jobs``
        workers, optional retry ``policy``) and are persisted
        atomically as they land — an interrupted campaign loses at
        most its in-flight cells.  Cache traffic is visible as the
        ``campaign.cell_hits`` / ``campaign.cells_computed`` telemetry
        counters and in the returned :class:`CampaignRun`.
        """
        cells, keys, meta = self._cells()
        session = self._session(keys, meta)
        cached = len(session.hits())
        with run_scope("campaign") as recorder:
            with _telemetry.span(
                "campaign.run", category="campaign",
                cells=len(cells), cached=cached, jobs=jobs,
            ):
                results = execute_shards(
                    _run_campaign_cell, cells, jobs=jobs,
                    policy=policy, cache=_FixedKeyCache(session),
                )
            stats = SolverStats().merge(*(r.stats for r in results))
            hashes = [r.event_hash for r in results]
            combined = (
                fold_hashes([h for h in hashes if h is not None])
                if hashes and not any(h is None for h in hashes)
                else None
            )
            currents = np.array(
                [r.current for r in results], dtype=float
            ).reshape(self.space.shape + (self.replicas,))
            if recorder is not None:
                recorder.commit(
                    circuit=self.circuit, config=self.config,
                    values=np.concatenate(self.space.values),
                    jumps_per_point=self.jumps_per_point,
                    label=self.label, jobs=jobs,
                    replicas=self.replicas,
                    event_hash=combined,
                )
        return CampaignRun(
            fingerprint=self.fingerprint,
            shape=self.space.shape,
            replicas=self.replicas,
            cached=cached,
            computed=len(cells) - cached,
            currents=currents,
            stats=stats,
            event_hash=combined,
        )

    # ------------------------------------------------------------------
    def get_results_array(self) -> np.ndarray:
        """The stored grid as a dense array, without running anything.

        Axes are the parameter dimensions in declaration order, then
        replicas.  Raises :class:`CampaignError` when cells are missing
        (run :meth:`run_missing` first) — including cells dropped as
        corrupt during the read.
        """
        _, keys, _ = self._cells()
        workload = self.store.workload(self.fingerprint)
        currents = np.empty(len(keys), dtype=float)
        missing = 0
        for i, key in enumerate(keys):
            cell = workload.load(key)
            if cell is None:
                missing += 1
                continue
            currents[i] = float(cell[0].current)
        if missing:
            raise CampaignError(
                f"{missing} of {len(keys)} campaign cell(s) missing from "
                f"{workload.directory}; run run_missing() first"
            )
        return currents.reshape(self.space.shape + (self.replicas,))

    def combined_hash(self) -> str | None:
        """Fold of the stored cells' event digests in grid order, read
        straight from the cell records (``None`` if any is absent)."""
        _, keys, _ = self._cells()
        workload = self.store.workload(self.fingerprint)
        hashes: list[str] = []
        for key in keys:
            cell = workload.load(key)
            if cell is None or cell[1].get("event_hash") is None:
                return None
            hashes.append(str(cell[1]["event_hash"]))
        return fold_hashes(hashes)

    def to_xarray(self) -> Any:
        """The stored grid as a labelled ``xarray.DataArray``.

        xarray is an optional dependency; without it this raises
        :class:`CampaignError` (the numpy path,
        :meth:`get_results_array`, always works).
        """
        try:
            import xarray
        except ImportError as exc:
            raise CampaignError(
                "xarray is not installed; use get_results_array() for "
                "the plain numpy grid"
            ) from exc
        data = self.get_results_array()
        dims = self.space.names + ("replica",)
        coords: dict[str, Any] = {
            name: axis
            for name, axis in zip(self.space.names, self.space.values)
        }
        coords["replica"] = np.arange(self.replicas)
        return xarray.DataArray(
            data, dims=dims, coords=coords,
            name=self.label or "current",
            attrs={"fingerprint": self.fingerprint},
        )
