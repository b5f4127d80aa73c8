"""The conventional (non-adaptive) Monte Carlo solver.

This is the baseline the paper compares against: after *every* tunnel
event the potential of every node is re-solved and the tunneling rate
of every junction in both directions is recomputed (Sec. III-B,
*Non-adaptive solver*).  It is also the reference for accuracy — the
propagation-delay "truth" of Fig. 7 comes from averaged non-adaptive
runs.

The implementation is vectorised with numpy so that the Fig. 6 speedup
measurements compare the adaptive algorithm against an honest, tuned
baseline rather than a deliberately slow one.
"""

from __future__ import annotations

import numpy as np

from repro.core.base import BaseSolver
from repro.core.events import TunnelEvent


class NonAdaptiveSolver(BaseSolver):
    """Recompute-everything MC solver (conventional algorithm)."""

    def step(self, deadline: float | None = None) -> TunnelEvent | None:
        v = self.stat.potentials(self.occupation, self.vext)
        self.stats.potential_solves += 1
        dw_fw, dw_bw = self.table.free_energy_changes(v, self.vext)
        seq_fw, seq_bw = self.model.sequential_rates(dw_fw, dw_bw)
        self.stats.sequential_rate_evaluations += 2 * self.n_junctions
        secondary_rates, energies = self._secondary_rates(v)
        return self._select_and_apply(
            seq_fw, seq_bw, secondary_rates, energies, dw_fw, dw_bw,
            deadline=deadline,
        )

    def set_external_voltages(self, vext: np.ndarray) -> None:
        """Adopt new source voltages; everything is recomputed next step."""
        self.vext = np.asarray(vext, dtype=float).copy()

    def potentials(self) -> np.ndarray:
        return self.stat.potentials(self.occupation, self.vext)
