"""Incoherent Cooper-pair tunneling in the high-resistance regime.

The paper (Sec. III-A) models Cooper-pair transport for junctions with
``R_N >> R_Q = h/4e^2`` and ``E_J << E_c``.  In that regime pair
tunneling is an incoherent, lifetime-broadened resonance: the rate is a
Lorentzian in the free-energy mismatch ``dW`` of the 2e transfer,

.. math::

    \\Gamma_{cp}(\\Delta W) = \\frac{E_J^2}{2\\hbar}\\,
        \\frac{\\gamma}{\\Delta W^2 + (\\gamma/2)^2}

where ``gamma`` is the linewidth energy (``hbar`` times the decay rate
of the intermediate state, physically set by the subsequent
quasi-particle escape).  Peak positions — which determine where the JQP
and DJQP resonances of Figs. 1c and 5 sit — depend only on the circuit
electrostatics; the linewidth affects peak heights, so it is exposed as
a model parameter with a physically motivated default.

The Josephson energy follows Ambegaokar-Baratoff with the standard
finite-temperature correction::

    E_J(T) = (h Delta(T) / 8 e^2 R_N) * tanh(Delta(T) / 2 k_B T)
"""

from __future__ import annotations

import math

import numpy as np

from repro.constants import E_CHARGE, H_PLANCK, HBAR, K_B, R_QUANTUM
from repro.errors import PhysicsError

#: Default linewidth as a fraction of the gap when not provided.
DEFAULT_LINEWIDTH_FRACTION = 0.02


def josephson_energy(resistance: float, delta: float, temperature: float) -> float:
    """Ambegaokar-Baratoff Josephson energy ``E_J(T)`` in joules."""
    if resistance <= 0.0:
        raise PhysicsError(f"resistance must be > 0, got {resistance}")
    if delta < 0.0:
        raise PhysicsError(f"gap must be >= 0, got {delta}")
    if delta == 0.0:
        return 0.0
    ej0 = H_PLANCK * delta / (8.0 * E_CHARGE * E_CHARGE * resistance)
    if temperature <= 0.0:
        return ej0
    return ej0 * math.tanh(delta / (2.0 * K_B * temperature))


def validate_regime(resistance: float, josephson: float, charging: float) -> None:
    """Check the model's validity assumptions (Sec. III-A).

    Raises :class:`PhysicsError` if ``R_N <= R_Q`` or ``E_J >= E_c``;
    outside those limits the incoherent-Lorentzian picture is wrong and
    the simulator must not silently produce numbers.
    """
    if resistance <= R_QUANTUM:
        raise PhysicsError(
            f"Cooper-pair model requires R_N >> R_Q ({R_QUANTUM:.0f} Ohm); "
            f"got R_N = {resistance:.3g} Ohm"
        )
    if josephson >= charging:
        raise PhysicsError(
            f"Cooper-pair model requires E_J << E_c; got E_J = {josephson:.3g} J "
            f">= E_c = {charging:.3g} J"
        )


def cooper_pair_rate(dw, josephson: float, linewidth: float):
    """Incoherent Cooper-pair tunneling rate (1/s).

    Parameters
    ----------
    dw:
        Free-energy change of the 2e transfer in joules (scalar/array).
    josephson:
        Josephson energy ``E_J`` in joules.
    linewidth:
        Lorentzian full width ``gamma`` in joules (must be > 0).
    """
    if linewidth <= 0.0:
        raise PhysicsError(f"linewidth must be > 0, got {linewidth}")
    dw = np.asarray(dw, dtype=float)
    rate = (josephson * josephson / (2.0 * HBAR)) * linewidth / (
        dw * dw + 0.25 * linewidth * linewidth
    )
    return rate if rate.ndim else float(rate)


def default_linewidth(delta: float, temperature: float = 0.0) -> float:
    """Default linewidth energy.

    The floor is a small fraction of the gap (lifetime broadening from
    the quasi-particle escape that completes a JQP cycle); at finite
    temperature the resonance condition is additionally smeared by the
    thermal width of the quasi-particle distribution, so the larger of
    the two scales is used.  This is what lets a coarse (bias, gate)
    grid resolve the JQP ridges of Fig. 5 the way a measurement at
    0.52 K does.
    """
    if delta <= 0.0:
        raise PhysicsError(f"gap must be > 0, got {delta}")
    if temperature < 0.0:
        raise PhysicsError(f"temperature must be >= 0, got {temperature}")
    return max(DEFAULT_LINEWIDTH_FRACTION * delta, K_B * temperature)
