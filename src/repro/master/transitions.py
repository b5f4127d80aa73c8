"""Enumeration of all tunnel transitions out of a charge state.

Shared by the master-equation solver (which needs the full generator)
and by tests that cross-check the Monte Carlo solvers' rate assembly.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.circuit.electrostatics import Electrostatics
from repro.circuit.junction_table import JunctionTable
from repro.constants import E_CHARGE
from repro.physics.rates import TunnelingModel


@dataclasses.dataclass(frozen=True)
class Transition:
    """One outgoing transition from a charge state.

    ``d_occupation`` is the occupation change per island (sparse dict);
    ``flux`` maps junction index to signed electron count (+ = the
    junction's ``node_a -> node_b`` direction), used for steady-state
    current bookkeeping.
    """

    kind: str
    rate: float
    d_occupation: tuple[tuple[int, int], ...]
    flux: tuple[tuple[int, int], ...]
    dw: float

    def apply(self, occupation: np.ndarray) -> np.ndarray:
        new = occupation.copy()
        for island, delta in self.d_occupation:
            new[island] += delta
        return new


def _transfer(ref_a, ref_b, n_electrons: int) -> tuple[tuple[int, int], ...]:
    changes: dict[int, int] = {}
    if ref_a.is_island:
        changes[ref_a.index] = changes.get(ref_a.index, 0) - n_electrons
    if ref_b.is_island:
        changes[ref_b.index] = changes.get(ref_b.index, 0) + n_electrons
    return tuple(sorted(changes.items()))


def enumerate_transitions(
    stat: Electrostatics,
    table: JunctionTable,
    model: TunnelingModel,
    occupation: np.ndarray,
    vext: np.ndarray,
) -> list[Transition]:
    """All transitions (with rates) out of ``occupation``.

    Includes sequential single-electron events, and — when the model
    enables them — Cooper-pair and cotunneling events, mirroring
    exactly the channels the Monte Carlo solvers draw from.
    """
    v = stat.potentials(occupation, vext)
    resolved = model.circuit.resolved_junctions()
    out: list[Transition] = []

    dw_fw, dw_bw = table.free_energy_changes(v, vext)
    seq_fw, seq_bw = model.sequential_rates(dw_fw, dw_bw)
    for j, rj in enumerate(resolved):
        if seq_fw[j] > 0.0:
            out.append(
                Transition(
                    "sequential", float(seq_fw[j]),
                    _transfer(rj.ref_a, rj.ref_b, 1), ((j, +1),), float(dw_fw[j]),
                )
            )
        if seq_bw[j] > 0.0:
            out.append(
                Transition(
                    "sequential", float(seq_bw[j]),
                    _transfer(rj.ref_b, rj.ref_a, 1), ((j, -1),), float(dw_bw[j]),
                )
            )

    if model.include_cooper_pairs:
        cp_dw_fw, cp_dw_bw = table.free_energy_changes(v, vext, dq=-2.0 * E_CHARGE)
        cp_fw, cp_bw = model.cooper_pair_rates(cp_dw_fw, cp_dw_bw)
        for j, rj in enumerate(resolved):
            if cp_fw[j] > 0.0:
                out.append(
                    Transition(
                        "cooper_pair", float(cp_fw[j]),
                        _transfer(rj.ref_a, rj.ref_b, 2), ((j, +2),),
                        float(cp_dw_fw[j]),
                    )
                )
            if cp_bw[j] > 0.0:
                out.append(
                    Transition(
                        "cooper_pair", float(cp_bw[j]),
                        _transfer(rj.ref_b, rj.ref_a, 2), ((j, -2),),
                        float(cp_dw_bw[j]),
                    )
                )

    if model.include_cotunneling:
        for path in model.paths:
            dw_total = stat.free_energy_change(path.ref_a, path.ref_b, v, vext)
            e1 = stat.free_energy_change(path.ref_a, path.ref_m, v, vext)
            e2 = stat.free_energy_change(path.ref_m, path.ref_b, v, vext)
            rate = model.cotunneling_rate_for_path(path, dw_total, e1, e2)
            if rate > 0.0:
                out.append(
                    Transition(
                        "cotunneling", float(rate),
                        _transfer(path.ref_a, path.ref_b, 1),
                        (
                            (path.junction_in, path.direction_in),
                            (path.junction_out, path.direction_out),
                        ),
                        float(dw_total),
                    )
                )
    return out
