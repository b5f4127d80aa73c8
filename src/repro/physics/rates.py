"""Per-circuit bundle of tunneling rate models.

:class:`TunnelingModel` is the single object solvers talk to for rate
physics.  It inspects the circuit once, prepares whatever is expensive
(quasi-particle rate tables, Josephson energies, cotunneling paths) and
then answers vectorised rate queries:

* :meth:`sequential_rates` — orthodox rates for normal circuits or
  tabulated quasi-particle rates for superconducting ones;
* :meth:`cooper_pair_rates` — Lorentzian 2e rates (superconducting);
* :meth:`cotunneling_rates` — second-order inelastic rates over the
  enumerated path set.
"""

from __future__ import annotations

import math

import numpy as np

from repro.circuit.circuit import Circuit
from repro.circuit.electrostatics import Electrostatics
from repro.circuit.junction_table import JunctionTable
from repro.constants import E_CHARGE, K_B
from repro.errors import PhysicsError
from repro.physics.bcs import bcs_gap
from repro.physics.cooper import (
    cooper_pair_rate,
    default_linewidth,
    josephson_energy,
    validate_regime,
)
from repro.physics.cotunneling import (
    CotunnelingPath,
    cotunneling_rate,
    default_energy_floor,
    enumerate_paths,
)
from repro.physics.orthodox import orthodox_rate, orthodox_rates_both
from repro.physics.quasiparticle import QuasiparticleRateTable


class TunnelingModel:
    """Rate physics for one circuit at one temperature.

    Parameters
    ----------
    circuit, electrostatics, junction_table:
        The frozen circuit and its prepared electrostatic views.
    temperature:
        Bath temperature in kelvin.
    include_cotunneling:
        Enable second-order inelastic cotunneling events.
    include_cooper_pairs:
        Enable 2e events on superconducting circuits (default on when
        the circuit is superconducting).
    cooper_linewidth:
        Lorentzian linewidth energy in joules; defaults to a small
        fraction of the gap.  Must be finite and > 0 when given.
    cotunneling_energy_floor:
        Regularisation floor for virtual-state energies in joules.  Must
        be finite and > 0 when given.
    qp_table_points:
        Resolution of the quasi-particle rate tables.
    """

    def __init__(
        self,
        circuit: Circuit,
        electrostatics: Electrostatics,
        junction_table: JunctionTable,
        temperature: float,
        include_cotunneling: bool = False,
        include_cooper_pairs: bool | None = None,
        cooper_linewidth: float | None = None,
        cotunneling_energy_floor: float | None = None,
        qp_table_points: int = 4001,
    ):
        if temperature < 0.0:
            raise PhysicsError(f"temperature must be >= 0, got {temperature}")
        for name, value in (
            ("cooper_linewidth", cooper_linewidth),
            ("cotunneling_energy_floor", cotunneling_energy_floor),
        ):
            if value is not None and not (math.isfinite(value) and value > 0.0):
                raise PhysicsError(f"{name} must be finite and > 0, got {value}")
        self.circuit = circuit
        self.electrostatics = electrostatics
        self.junction_table = junction_table
        self.temperature = temperature
        self.include_cotunneling = include_cotunneling

        self.superconducting = circuit.is_superconducting
        if include_cooper_pairs is None:
            include_cooper_pairs = self.superconducting
        if include_cooper_pairs and not self.superconducting:
            raise PhysicsError(
                "Cooper-pair tunneling requires a superconducting circuit"
            )
        self.include_cooper_pairs = include_cooper_pairs

        #: typical charging energy, used for cotunneling regularisation
        self.charging_scale = float(
            0.5 * E_CHARGE * E_CHARGE * np.mean(junction_table.charging)
        )

        self.gap = 0.0
        self._qp_tables: list[QuasiparticleRateTable] = []
        self.josephson = np.zeros(junction_table.n_junctions)
        self.cooper_linewidth = 0.0
        if self.superconducting:
            sc = circuit.superconductor
            self.gap = bcs_gap(temperature, sc.delta0, sc.tc)
            if self.gap <= 0.0:
                raise PhysicsError(
                    f"T = {temperature} K is at or above Tc = {sc.tc} K; "
                    "the circuit is no longer superconducting — simulate it "
                    "as a normal circuit instead"
                )
            dw_max = self._qp_table_span()
            self._qp_tables = [
                circuit.quasiparticle_table(
                    rj.resistance, self.gap, temperature, dw_max, qp_table_points
                )
                for rj in circuit.resolved_junctions()
            ]
            if self.include_cooper_pairs:
                for i, rj in enumerate(circuit.resolved_junctions()):
                    ej = josephson_energy(rj.resistance, self.gap, temperature)
                    charging = (
                        0.5 * (2.0 * E_CHARGE) ** 2 * junction_table.charging[i]
                    )
                    validate_regime(rj.resistance, ej, charging)
                    self.josephson[i] = ej
                self.cooper_linewidth = (
                    cooper_linewidth
                    if cooper_linewidth is not None
                    else default_linewidth(self.gap, temperature)
                )

        self.paths: tuple[CotunnelingPath, ...] = ()
        self.energy_floor = 0.0
        if include_cotunneling:
            if self.superconducting:
                raise PhysicsError(
                    "cotunneling is implemented for normal-state circuits "
                    "(the paper neglects quasi-particle cotunneling, Sec. II)"
                )
            self.paths = enumerate_paths(circuit)
            self.energy_floor = (
                cotunneling_energy_floor
                if cotunneling_energy_floor is not None
                else default_energy_floor(temperature, self.charging_scale)
            )

    # ------------------------------------------------------------------
    def _qp_table_span(self) -> float:
        """Free-energy span the quasi-particle tables must cover.

        Keeping the span tight keeps the grid fine around the gap edges
        (the physics of Figs. 1c and 5 lives within a few ``Delta`` of
        zero); far outside the span the table's asymptotic extensions
        are accurate, so nothing is gained by tabulating further out.
        """
        return 16.0 * 2.0 * self.gap + 120.0 * K_B * self.temperature

    # ------------------------------------------------------------------
    # rate queries
    # ------------------------------------------------------------------
    def sequential_rates(
        self, dw_forward: np.ndarray, dw_backward: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Single-electron rates for all junctions, both directions."""
        if not self.superconducting:
            return orthodox_rates_both(
                dw_forward, dw_backward, self.junction_table.resistance,
                self.temperature,
            )
        # one scalar lookup per junction and direction: each costs less
        # than one numpy call on a 0-d array
        tables = self._qp_tables
        fwd = [table(dw) for table, dw in zip(tables, dw_forward.tolist())]
        bwd = [table(dw) for table, dw in zip(tables, dw_backward.tolist())]
        return np.array(fwd), np.array(bwd)

    def sequential_rate_single(self, junction: int, dw: float) -> float:
        """Single-electron rate for one junction and one direction."""
        if not self.superconducting:
            resistance = float(self.junction_table.resistance[junction])
            return float(orthodox_rate(dw, resistance, self.temperature))
        return self._qp_tables[junction](dw)

    def cooper_pair_rates(
        self, dw_forward: np.ndarray, dw_backward: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """2e transfer rates for all junctions, both directions."""
        if not self.include_cooper_pairs:
            zeros = np.zeros_like(dw_forward)
            return zeros, zeros.copy()
        fwd = cooper_pair_rate(dw_forward, 1.0, self.cooper_linewidth)
        bwd = cooper_pair_rate(dw_backward, 1.0, self.cooper_linewidth)
        ej2 = self.josephson * self.josephson
        return fwd * ej2, bwd * ej2

    def cotunneling_rate_for_path(
        self, path: CotunnelingPath, dw_total: float, e_virtual_1: float,
        e_virtual_2: float,
    ) -> float:
        """Rate of one directed cotunneling path given its energies."""
        r1 = self.junction_table.resistance[path.junction_in]
        r2 = self.junction_table.resistance[path.junction_out]
        return cotunneling_rate(
            dw_total, e_virtual_1, e_virtual_2, r1, r2,
            self.temperature, self.energy_floor,
        )
