"""Physical constants used throughout the simulator.

All quantities are in SI units: energies in joules, voltages in volts,
capacitances in farads, resistances in ohms, temperatures in kelvin and
times in seconds.  The values follow the 2019 SI redefinition, where the
elementary charge, Boltzmann constant and Planck constant are exact.
"""

from __future__ import annotations

import math

from repro.errors import PhysicsError

#: Elementary charge (C).  Exact since the 2019 SI redefinition.
E_CHARGE = 1.602176634e-19

#: Boltzmann constant (J/K).  Exact.
K_B = 1.380649e-23

#: Planck constant (J*s).  Exact.
H_PLANCK = 6.62607015e-34

#: Reduced Planck constant (J*s).
HBAR = H_PLANCK / (2.0 * math.pi)

#: Superconducting resistance quantum for Cooper pairs, R_Q = h / (4 e^2).
#: Roughly 6.45 kOhm; junctions with R_N >> R_Q are in the incoherent
#: Cooper-pair tunneling regime assumed by the paper (Sec. III-A).
R_QUANTUM = H_PLANCK / (4.0 * E_CHARGE**2)

#: Single-electron resistance quantum (von Klitzing constant),
#: R_K = h / e^2, roughly 25.8 kOhm.  Orthodox theory treats tunneling
#: perturbatively and requires R_T >> R_K; junctions below it leak
#: charge quantum-coherently and the rate equations lose validity.
R_K = H_PLANCK / E_CHARGE**2

#: BCS weak-coupling ratio Delta(0) = BCS_RATIO * k_B * Tc.
BCS_RATIO = 1.764

#: Electron-volt in joules, for convenient conversions in tests/benches.
EV = E_CHARGE

#: One milli-electron-volt in joules.
MEV = 1.0e-3 * E_CHARGE


def thermal_energy(temperature: float) -> float:
    """Return ``k_B * T`` in joules for a temperature in kelvin.

    Raises :class:`repro.errors.PhysicsError` for negative temperatures,
    keeping the package contract that every deliberate error derives
    from :class:`repro.errors.SemsimError`.
    """
    if temperature < 0.0:
        raise PhysicsError(f"temperature must be >= 0 K, got {temperature}")
    return K_B * temperature
