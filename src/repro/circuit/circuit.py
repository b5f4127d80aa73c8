"""Immutable circuit representation with resolved node indices."""

from __future__ import annotations

import dataclasses
from typing import TYPE_CHECKING, Hashable, Mapping

import numpy as np

from repro.circuit.components import (
    BackgroundCharge,
    Capacitor,
    NodeRef,
    Superconductor,
    TunnelJunction,
    VoltageSource,
)
from repro.constants import E_CHARGE
from repro.errors import CircuitError

if TYPE_CHECKING:
    from repro.circuit.electrostatics import Electrostatics
    from repro.circuit.junction_table import JunctionTable
    from repro.physics.quasiparticle import QuasiparticleRateTable


@dataclasses.dataclass(frozen=True)
class ResolvedJunction:
    """A junction with its endpoints resolved to :class:`NodeRef`."""

    index: int
    junction: TunnelJunction
    ref_a: NodeRef
    ref_b: NodeRef

    @property
    def name(self) -> str:
        return self.junction.name

    @property
    def resistance(self) -> float:
        return self.junction.resistance

    @property
    def capacitance(self) -> float:
        return self.junction.capacitance


@dataclasses.dataclass(frozen=True)
class Circuit:
    """A frozen single-electron circuit.

    Created by :class:`~repro.circuit.builder.CircuitBuilder.build`.
    Node bookkeeping:

    * ``island_labels[i]`` is the label of island ``i``; the simulator's
      charge state is an integer vector over these indices.
    * ``external_labels[k]`` is the label of external node ``k``; slot 0
      is always ground.  ``external_voltages()`` returns the pinned
      potentials in this order.
    """

    junctions: tuple[TunnelJunction, ...]
    capacitors: tuple[Capacitor, ...]
    sources: tuple[VoltageSource, ...]
    background_charges: tuple[BackgroundCharge, ...]
    island_labels: tuple[Hashable, ...]
    external_labels: tuple[Hashable, ...]
    node_refs: Mapping[Hashable, NodeRef]
    superconductor: Superconductor | None = None

    # ------------------------------------------------------------------
    # pickling
    # ------------------------------------------------------------------
    def __getstate__(self) -> dict:
        """Pickle the declared fields only, never the memo caches.

        The lazily materialised ``*_cache`` slots below are set with
        ``object.__setattr__`` and would otherwise ride along in the
        default dataclass state — making a circuit's pickle bytes
        depend on *which views have been touched so far*.  That breaks
        every consumer that treats the pickle as a content address
        (campaign cell keys) and ships
        redundant derived data to pool workers, who rebuild the caches
        lazily anyway.
        """
        return {
            key: value
            for key, value in self.__dict__.items()
            if not key.endswith("_cache")
        }

    def __setstate__(self, state: dict) -> None:
        for key, value in state.items():
            object.__setattr__(self, key, value)

    # ------------------------------------------------------------------
    # sizes
    # ------------------------------------------------------------------
    @property
    def n_islands(self) -> int:
        return len(self.island_labels)

    @property
    def n_external(self) -> int:
        return len(self.external_labels)

    @property
    def n_junctions(self) -> int:
        return len(self.junctions)

    @property
    def is_superconducting(self) -> bool:
        return self.superconductor is not None

    # ------------------------------------------------------------------
    # resolved views (cached on first use)
    # ------------------------------------------------------------------
    def resolved_junctions(self) -> tuple[ResolvedJunction, ...]:
        """Junctions with endpoints resolved to dense node references."""
        cached = getattr(self, "_resolved_cache", None)
        if cached is None:
            cached = tuple(
                ResolvedJunction(
                    index=i,
                    junction=j,
                    ref_a=self.node_refs[j.node_a],
                    ref_b=self.node_refs[j.node_b],
                )
                for i, j in enumerate(self.junctions)
            )
            object.__setattr__(self, "_resolved_cache", cached)
        return cached

    def island_adjacency(self) -> tuple[tuple[int, ...], ...]:
        """Islands electrostatically coupled to each island.

        Two islands are adjacent when a junction *or a capacitor*
        connects them — both propagate potential perturbations, so
        both must carry the adaptive solver's breadth-first test
        (a gate capacitor couples a logic wire to a device island
        without any junction between them).
        """
        cached = getattr(self, "_island_adjacency_cache", None)
        if cached is None:
            sets: list[set[int]] = [set() for _ in range(self.n_islands)]

            def couple(label_a, label_b) -> None:
                ref_a = self.node_refs[label_a]
                ref_b = self.node_refs[label_b]
                if ref_a.is_island and ref_b.is_island:
                    sets[ref_a.index].add(ref_b.index)
                    sets[ref_b.index].add(ref_a.index)

            for junction in self.junctions:
                couple(junction.node_a, junction.node_b)
            for capacitor in self.capacitors:
                couple(capacitor.node_a, capacitor.node_b)
            cached = tuple(tuple(sorted(s)) for s in sets)
            object.__setattr__(self, "_island_adjacency_cache", cached)
        return cached

    def junction_neighbors(self) -> tuple[tuple[int, ...], ...]:
        """``neighbors[i]``: junctions whose rates can shift when
        junction ``i``'s surroundings change.

        This is the adjacency the adaptive solver's breadth-first test
        walks (Algorithm 1, line 8): junctions touching the same island
        or an island one capacitive hop away.  Junctions only coupled
        through external nodes are *not* neighbours: a pinned node's
        potential never changes, so no perturbation propagates through
        it.
        """
        cached = getattr(self, "_neighbors_cache", None)
        if cached is None:
            on_island = self.junctions_on_island()
            adjacency = self.island_adjacency()
            neighbor_sets: list[set[int]] = [set() for _ in self.junctions]
            for rj in self.resolved_junctions():
                islands: set[int] = set()
                for ref in (rj.ref_a, rj.ref_b):
                    if ref.is_island:
                        islands.add(ref.index)
                        islands.update(adjacency[ref.index])
                for island in islands:
                    for j in on_island[island]:
                        if j != rj.index:
                            neighbor_sets[rj.index].add(j)
            cached = tuple(tuple(sorted(s)) for s in neighbor_sets)
            object.__setattr__(self, "_neighbors_cache", cached)
        return cached

    def junctions_on_island(self) -> tuple[tuple[int, ...], ...]:
        """``result[i]`` lists junction indices touching island ``i``."""
        cached = getattr(self, "_island_junctions_cache", None)
        if cached is None:
            lists: list[list[int]] = [[] for _ in range(self.n_islands)]
            for rj in self.resolved_junctions():
                for ref in (rj.ref_a, rj.ref_b):
                    if ref.is_island:
                        lists[ref.index].append(rj.index)
            cached = tuple(tuple(sorted(set(lst))) for lst in lists)
            object.__setattr__(self, "_island_junctions_cache", cached)
        return cached

    def prepared_electrostatics(self) -> tuple["Electrostatics", "JunctionTable"]:
        """The circuit's shared :class:`Electrostatics` and :class:`JunctionTable`.

        Built on first use and then reused by every Monte Carlo engine
        and master-equation solver on this circuit, so ``C^-1`` (n^2
        floats dense; packed per capacitive component sparse, 95 MiB
        at c1908) is formed once per circuit rather than once per
        engine.  Both are read-only.
        """
        cached = getattr(self, "_electrostatics_cache", None)
        if cached is None:
            # imported here: both modules import this one
            from repro.circuit.electrostatics import Electrostatics
            from repro.circuit.junction_table import JunctionTable

            stat = Electrostatics(self)
            cached = (stat, JunctionTable(self, stat))
            object.__setattr__(self, "_electrostatics_cache", cached)
        return cached

    def quasiparticle_table(
        self, resistance: float, gap: float, temperature: float, span: float,
        points: int,
    ) -> "QuasiparticleRateTable":
        """The circuit's shared quasi-particle rate table for junctions
        of one resistance between electrodes of one gap.

        Built on first use for each ``(resistance, gap, temperature,
        span, points)`` and then reused by every engine on this circuit:
        a 4001-point table costs a few thousand quadratures (about
        0.2 s).  Tables are read-only.
        """
        tables = getattr(self, "_qp_tables_cache", None)
        if tables is None:
            tables = {}
            object.__setattr__(self, "_qp_tables_cache", tables)
        key = (resistance, gap, temperature, span, points)
        table = tables.get(key)
        if table is None:
            # imported here: the physics package imports this module
            from repro.physics.quasiparticle import QuasiparticleRateTable

            table = QuasiparticleRateTable(
                resistance, gap, gap, temperature, dw_max=span, n_points=points,
            )
            tables[key] = table
        return table

    # ------------------------------------------------------------------
    # vectors
    # ------------------------------------------------------------------
    def external_voltages(self) -> np.ndarray:
        """Pinned potentials of external nodes (slot 0 = ground = 0 V)."""
        v = np.zeros(self.n_external)
        for k, source in enumerate(self.sources):
            v[k + 1] = source.voltage
        return v

    def with_source_voltages(self, voltages: Mapping[str, float]) -> "Circuit":
        """Return a copy with named sources set to new DC values.

        Sweeps use this to retarget bias/gate sources without rebuilding
        matrices (the capacitance network is unchanged).
        """
        by_name = {s.name: s for s in self.sources}
        unknown = set(voltages) - set(by_name)
        if unknown:
            raise CircuitError(f"unknown source(s): {sorted(unknown)}")
        new_sources = tuple(
            dataclasses.replace(s, voltage=voltages.get(s.name, s.voltage))
            for s in self.sources
        )
        return dataclasses.replace(self, sources=new_sources)

    def background_charge_vector(self) -> np.ndarray:
        """Offset charge ``q0`` per island in coulombs."""
        q0 = np.zeros(self.n_islands)
        for bc in self.background_charges:
            ref = self.node_refs[bc.node]
            q0[ref.index] += bc.charge_e * E_CHARGE
        return q0

    def source_index(self, name: str) -> int:
        """External-vector index of the source called ``name``."""
        for k, source in enumerate(self.sources):
            if source.name == name:
                return k + 1
        raise CircuitError(f"no source named {name!r}")

    def junction_index(self, name: str) -> int:
        """Index of the junction called ``name``."""
        for i, junction in enumerate(self.junctions):
            if junction.name == name:
                return i
        raise CircuitError(f"no junction named {name!r}")

    def island_index(self, label: Hashable) -> int:
        """Island index for a node label (raises if not an island)."""
        ref = self.node_refs.get(label)
        if ref is None:
            raise CircuitError(f"unknown node {label!r}")
        if not ref.is_island:
            raise CircuitError(f"node {label!r} is externally driven, not an island")
        return ref.index
