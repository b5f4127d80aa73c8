"""Vectorised per-junction views used by the Monte Carlo solvers.

The non-adaptive solver recomputes the free-energy change of every
junction in both directions each iteration; doing that with numpy
index arrays instead of Python loops keeps the conventional baseline
honest (it is as fast as a straightforward implementation can be, so
the adaptive speedups reported by the benches are not an artefact of a
deliberately slow baseline).
"""

from __future__ import annotations

import numpy as np

from repro.circuit.circuit import Circuit
from repro.circuit.electrostatics import Electrostatics
from repro.constants import E_CHARGE


class JunctionTable:
    """Struct-of-arrays view of a circuit's junctions.

    Attributes
    ----------
    resistance:
        Normal-state resistance per junction (ohms).
    charging:
        ``K_aa - 2 K_ab + K_bb`` per junction (1/farads); the charging
        self-energy of a single-electron transfer is
        ``e^2/2 * charging``.
    """

    def __init__(self, circuit: Circuit, stat: Electrostatics):
        resolved = circuit.resolved_junctions()
        n = len(resolved)
        self.n_junctions = n
        self.resistance = np.array([rj.resistance for rj in resolved])
        self.capacitance = np.array([rj.capacitance for rj in resolved])

        a_island = np.array([rj.ref_a.is_island for rj in resolved], dtype=bool)
        b_island = np.array([rj.ref_b.is_island for rj in resolved], dtype=bool)
        index_a = np.array([rj.ref_a.index for rj in resolved], dtype=np.intp)
        index_b = np.array([rj.ref_b.index for rj in resolved], dtype=np.intp)
        #: public endpoint views used by the adaptive solver's per-junction
        #: potential-change tests
        self.a_is_island = a_island
        self.a_index = index_a
        self.b_is_island = b_island
        self.b_index = index_b
        # positions in the junction array whose endpoint is an island /
        # external node, plus the corresponding gather indices
        self._a_isl_pos = np.flatnonzero(a_island)
        self._a_isl_idx = index_a[a_island]
        self._a_ext_pos = np.flatnonzero(~a_island)
        self._a_ext_idx = index_a[~a_island]
        self._b_isl_pos = np.flatnonzero(b_island)
        self._b_isl_idx = index_b[b_island]
        self._b_ext_pos = np.flatnonzero(~b_island)
        self._b_ext_idx = index_b[~b_island]

        # Electrostatics.charging_coefficient for every junction at once,
        # in its operation order (+K_aa, +K_bb, -2 K_ab) so that each
        # entry is bit-identical to the scalar form
        both = a_island & b_island
        self.charging = np.zeros(n)
        self.charging[a_island] += stat.cinv_entries(self._a_isl_idx, self._a_isl_idx)
        self.charging[b_island] += stat.cinv_entries(self._b_isl_idx, self._b_isl_idx)
        self.charging[both] -= 2.0 * stat.cinv_entries(index_a[both], index_b[both])

        # shared by every engine on the circuit: nothing may write to it
        for value in vars(self).values():
            if isinstance(value, np.ndarray):
                value.flags.writeable = False

    def potential_drop(self, v_islands: np.ndarray, vext: np.ndarray) -> np.ndarray:
        """``phi_b - phi_a`` for every junction."""
        phi_a = np.empty(self.n_junctions)
        phi_a[self._a_isl_pos] = v_islands[self._a_isl_idx]
        phi_a[self._a_ext_pos] = vext[self._a_ext_idx]
        phi_b = np.empty(self.n_junctions)
        phi_b[self._b_isl_pos] = v_islands[self._b_isl_idx]
        phi_b[self._b_ext_pos] = vext[self._b_ext_idx]
        return phi_b - phi_a

    def free_energy_changes(
        self, v_islands: np.ndarray, vext: np.ndarray, dq: float = -E_CHARGE
    ) -> tuple[np.ndarray, np.ndarray]:
        """Forward and backward ``dW`` for every junction.

        *Forward* moves charge ``dq`` from ``node_a`` to ``node_b``;
        *backward* is the reverse.  Both share the charging self-energy
        term, so it is computed once.
        """
        drop = self.potential_drop(v_islands, vext)
        self_energy = 0.5 * dq * dq * self.charging
        dw_forward = dq * drop + self_energy
        dw_backward = -dq * drop + self_energy
        return dw_forward, dw_backward
