"""Second-order inelastic cotunneling (Fonseca et al. style).

In a Coulomb-blockaded circuit sequential tunneling is exponentially
suppressed, but an electron can still traverse *two* junctions in one
coherent second-order process via a virtual intermediate state.  The
paper includes inelastic cotunneling "up to the second order" using the
coexistence principle of Fonseca et al. [24]; elastic cotunneling is
neglected (Sec. II), as it is here.

For a path through junctions ``(1, 2)`` with intermediate virtual-state
energies ``E_1`` and ``E_2`` (the costs of performing either single
jump first) and total free-energy change ``dW``, the finite-temperature
Averin-Nazarov rate is

.. math::

    \\Gamma = \\frac{\\hbar}{2\\pi e^4 R_1 R_2}
        \\left(\\frac{1}{E_1} + \\frac{1}{E_2}\\right)^2
        \\frac{\\Delta W^2 + (2\\pi k_B T)^2}{6}\\;
        \\frac{-\\Delta W}{1 - e^{\\Delta W / k_B T}}

which obeys detailed balance and reproduces the famous ``I \\propto
V^3`` law at ``T = 0``.  Following the coexistence principle, when an
intermediate state becomes energetically *allowed* (``E_i`` small or
negative) the sequential channel dominates and the perturbative
expression diverges; we regularise by flooring the virtual energies at
``energy_floor`` (default: the larger of ``k_B T`` and a small fraction
of the mean charging scale), the standard cutoff in MC simulators.
"""

from __future__ import annotations

import dataclasses
import math

from repro.circuit.circuit import Circuit
from repro.circuit.components import NodeKind, NodeRef
from repro.constants import E_CHARGE, HBAR, K_B
from repro.errors import PhysicsError
from repro.physics.fermi import bose_weight

#: Floor on virtual-state energies as a fraction of e^2/(2 C_typical).
FLOOR_FRACTION = 0.05


@dataclasses.dataclass(frozen=True)
class CotunnelingPath:
    """One directed two-junction cotunneling channel ``a -> m -> b``.

    ``junction_in`` carries the electron onto the intermediate island
    ``ref_m``; ``junction_out`` carries it off.  The *direction* flags
    record whether the electron traverses each junction from its
    ``node_a`` to its ``node_b`` (+1) or the reverse (-1); solvers use
    them to translate a chosen path into charge-state updates and
    current bookkeeping.
    """

    index: int
    junction_in: int
    direction_in: int
    junction_out: int
    direction_out: int
    ref_a: NodeRef
    ref_m: NodeRef
    ref_b: NodeRef


def enumerate_paths(circuit: Circuit) -> tuple[CotunnelingPath, ...]:
    """All directed second-order paths through one intermediate island.

    Paths whose entry and exit nodes coincide are skipped: they move no
    net charge and contribute nothing to transport.
    """
    paths: list[CotunnelingPath] = []
    resolved = circuit.resolved_junctions()
    on_island = circuit.junctions_on_island()
    idx = 0
    for island, members in enumerate(on_island):
        for j_in in members:
            for j_out in members:
                if j_in == j_out:
                    continue
                rin, rout = resolved[j_in], resolved[j_out]
                # electron enters the island through j_in ...
                if rin.ref_b.is_island and rin.ref_b.index == island:
                    ref_a, dir_in = rin.ref_a, +1
                else:
                    ref_a, dir_in = rin.ref_b, -1
                # ... and leaves through j_out
                if rout.ref_a.is_island and rout.ref_a.index == island:
                    ref_b, dir_out = rout.ref_b, +1
                else:
                    ref_b, dir_out = rout.ref_a, -1
                if ref_a == ref_b:
                    continue
                paths.append(
                    CotunnelingPath(
                        index=idx,
                        junction_in=j_in,
                        direction_in=dir_in,
                        junction_out=j_out,
                        direction_out=dir_out,
                        ref_a=ref_a,
                        ref_m=_island_ref(island),
                        ref_b=ref_b,
                    )
                )
                idx += 1
    return tuple(paths)


def _island_ref(island: int) -> NodeRef:
    return NodeRef(NodeKind.ISLAND, island)


def cotunneling_rate(
    dw_total: float,
    e_virtual_1: float,
    e_virtual_2: float,
    resistance_1: float,
    resistance_2: float,
    temperature: float,
    energy_floor: float,
) -> float:
    """Inelastic cotunneling rate (1/s) for one directed path.

    ``e_virtual_1`` is the free-energy cost of hopping onto the island
    first; ``e_virtual_2`` of hopping off first.  Both are floored at
    ``energy_floor`` per the coexistence principle.
    """
    if resistance_1 <= 0.0 or resistance_2 <= 0.0:
        raise PhysicsError("junction resistances must be > 0")
    if energy_floor <= 0.0:
        raise PhysicsError(f"energy floor must be > 0, got {energy_floor}")
    e1 = max(e_virtual_1, energy_floor)
    e2 = max(e_virtual_2, energy_floor)
    prefactor = HBAR / (2.0 * math.pi * E_CHARGE**4 * resistance_1 * resistance_2)
    virtual = (1.0 / e1 + 1.0 / e2) ** 2
    two_pi_kt = 2.0 * math.pi * K_B * temperature
    window = (dw_total * dw_total + two_pi_kt * two_pi_kt) / 6.0
    # bose_weight(dW) = -dW / (1 - exp(dW/kT)) evaluated stably
    thermal = bose_weight(dw_total, temperature)
    return prefactor * virtual * window * thermal


def default_energy_floor(temperature: float, charging_scale: float) -> float:
    """Regularisation floor for virtual energies.

    ``charging_scale`` should be a typical single-electron charging
    energy of the circuit, e.g. ``e^2/2 * mean(charging coefficient)``.
    """
    if charging_scale <= 0.0:
        raise PhysicsError("charging scale must be > 0")
    return max(K_B * temperature, FLOOR_FRACTION * charging_scale)


def cotunneling_current_t0(
    voltage: float,
    e_virtual_1: float,
    e_virtual_2: float,
    resistance_1: float,
    resistance_2: float,
) -> float:
    """Zero-temperature analytic cotunneling current ``I = A V^3``.

    The closed form used by the paper's Sec. IV-A validation (and by
    the SIMON example set): with fixed virtual energies the net current
    through a two-junction system deep in blockade is

    .. math:: I = \\frac{\\hbar}{12 \\pi e^2 R_1 R_2}
              \\left(\\frac{1}{E_1}+\\frac{1}{E_2}\\right)^2 (eV)^2 V
    """
    virtual = (1.0 / e_virtual_1 + 1.0 / e_virtual_2) ** 2
    prefactor = HBAR / (12.0 * math.pi * E_CHARGE**2 * resistance_1 * resistance_2)
    return prefactor * virtual * (E_CHARGE * voltage) ** 2 * voltage
