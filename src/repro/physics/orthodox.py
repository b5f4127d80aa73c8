"""Orthodox-theory sequential tunneling rates (Eq. 1 of the paper).

For a normal-state junction the current-voltage characteristic is ohmic,
``I(V) = V / R``, and Eq. 1 reduces to the textbook orthodox rate

.. math::

    \\Gamma(\\Delta W) = \\frac{-\\Delta W / e^2 R}
                             {1 - \\exp(\\Delta W / k_B T)}

with :math:`\\Delta W` the free-energy change of the event (negative
when the event is energetically favourable).
"""

from __future__ import annotations

import numpy as np

from repro.constants import E_CHARGE
from repro.errors import PhysicsError
from repro.physics.fermi import bose_weight


def orthodox_rate(delta_w, resistance: float, temperature: float):
    """Sequential tunneling rate in 1/s for one junction.

    Parameters
    ----------
    delta_w:
        Free-energy change of the tunnel event in joules (scalar or
        array).
    resistance:
        Junction normal-state resistance in ohms.
    temperature:
        Temperature in kelvin; ``T = 0`` gives the sharp-threshold
        limit ``max(-dW, 0) / e^2 R``.
    """
    if resistance <= 0.0:
        raise PhysicsError(f"resistance must be > 0, got {resistance}")
    weight = bose_weight(delta_w, temperature)
    return weight / (E_CHARGE * E_CHARGE * resistance)


def orthodox_rates_both(delta_w_forward, delta_w_backward, resistances, temperature):
    """Vectorised forward/backward rates for arrays of junctions."""
    resistances = np.asarray(resistances, dtype=float)
    denom = E_CHARGE * E_CHARGE * resistances
    return (
        bose_weight(delta_w_forward, temperature) / denom,
        bose_weight(delta_w_backward, temperature) / denom,
    )


def threshold_voltage(total_capacitance: float) -> float:
    """Zero-temperature Coulomb-blockade onset ``e / C_sigma`` for a
    symmetrically biased SET at a blockade maximum.

    Used by tests and benches to predict where Fig. 1b's suppressed
    region should end.
    """
    if total_capacitance <= 0.0:
        raise PhysicsError("total capacitance must be > 0")
    return E_CHARGE / total_capacitance
