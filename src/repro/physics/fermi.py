"""Fermi-Dirac occupation with overflow-safe evaluation."""

from __future__ import annotations

import numpy as np

from repro.constants import K_B
from repro.errors import PhysicsError


def fermi(energy, temperature: float):
    """Fermi-Dirac occupation ``f(E) = 1 / (exp(E/kT) + 1)``.

    Accepts scalars or arrays; energies in joules relative to the Fermi
    level.  Evaluated as ``0.5 * (1 - tanh(E / 2kT))``, which never
    overflows.  At ``T = 0`` it degenerates to the step function with
    ``f(0) = 1/2``.
    """
    energy = np.asarray(energy, dtype=float)
    if temperature < 0.0:
        raise PhysicsError(f"temperature must be >= 0, got {temperature}")
    if temperature == 0.0:
        out = np.where(energy < 0.0, 1.0, np.where(energy > 0.0, 0.0, 0.5))
        return out if out.ndim else float(out)
    x = energy / (2.0 * K_B * temperature)
    out = 0.5 * (1.0 - np.tanh(x))
    return out if out.ndim else float(out)


def bose_weight(energy, temperature: float):
    """The detailed-balance weight ``x / (exp(x/kT) - 1)`` with ``x`` in J.

    This is the thermal factor of the orthodox rate (Eq. 1 rearranged);
    the function is finite and positive everywhere, approaching ``kT``
    as ``x -> 0`` and ``-x`` as ``x -> -inf``.
    """
    energy = np.asarray(energy, dtype=float)
    if temperature < 0.0:
        raise PhysicsError(f"temperature must be >= 0, got {temperature}")
    if temperature == 0.0:
        out = np.where(energy < 0.0, -energy, 0.0)
        return out if out.ndim else float(out)
    kt = K_B * temperature
    x = energy / kt
    # Piecewise evaluation keeps expm1 inside its safe range.
    out = np.empty_like(energy)
    small = np.abs(x) < 1e-12
    big = x > 500.0
    normal = ~(small | big)
    out[small] = kt
    out[big] = 0.0
    with np.errstate(over="ignore"):
        out[normal] = energy[normal] / np.expm1(x[normal])
    return out if out.ndim else float(out)
