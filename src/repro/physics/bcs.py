"""BCS superconductivity: temperature-dependent gap and reduced DOS.

The paper needs two ingredients (Sec. III-A):

* the temperature-dependent energy gap ``Delta(T)`` entering both the
  quasi-particle DOS and the Josephson energy;
* the BCS reduced density of states ``N_s(E)/N(0)`` of Eq. 4.

``Delta(T)`` is computed from the universal weak-coupling BCS gap
equation in reduced units (``delta = Delta/Delta0`` versus
``t = T/Tc``), solved once on a grid and interpolated, with the popular
``tanh(1.74 sqrt(Tc/T - 1))`` closed form available for cross-checks.
"""

from __future__ import annotations

import functools
import math

import numpy as np
from scipy import integrate, optimize

from repro.constants import BCS_RATIO
from repro.errors import PhysicsError


def _gap_equation_residual(u: float, tau: float) -> float:
    """Residual of the reduced BCS gap equation.

    ``u = Delta/Delta0``; ``tau = kT/Delta0``.  The equation is
    ``ln(1/u) = 2 * integral_0^inf f(sqrt(x^2+u^2)/tau) / sqrt(x^2+u^2) dx``
    with energies in units of ``Delta0``.
    """

    def integrand(x: float) -> float:
        e = math.hypot(x, u)
        # Fermi occupation with overflow guard.
        arg = e / tau
        if arg > 500.0:
            return 0.0
        return 1.0 / (math.exp(arg) + 1.0) / e

    upper = max(30.0 * tau, 10.0 * u, 1.0)
    integral, _ = integrate.quad(integrand, 0.0, upper, limit=200)
    return math.log(1.0 / u) - 2.0 * integral


@functools.lru_cache(maxsize=1)
def _universal_gap_table(n_points: int = 200) -> tuple[np.ndarray, np.ndarray]:
    """Tabulate the universal BCS function ``delta(t)`` on ``t in (0, 1)``."""
    ts = np.linspace(1e-3, 0.999, n_points)
    deltas = np.empty_like(ts)
    for i, t in enumerate(ts):
        tau = t / BCS_RATIO
        lo, hi = 1e-8, 1.0
        # residual(1.0) <= 0 for t > 0 and residual(->0) -> +inf
        try:
            deltas[i] = optimize.brentq(
                _gap_equation_residual, lo, hi, args=(tau,), xtol=1e-12
            )
        except ValueError:
            deltas[i] = 0.0
    return ts, deltas


def bcs_gap(temperature: float, delta0: float, tc: float, method: str = "selfconsistent") -> float:
    """Gap ``Delta(T)`` in joules.

    Parameters
    ----------
    temperature:
        Temperature in kelvin; values at or above ``tc`` return 0.
    delta0:
        Zero-temperature gap in joules.
    tc:
        Critical temperature in kelvin.
    method:
        ``"selfconsistent"`` interpolates the universal weak-coupling
        solution; ``"tanh"`` uses the closed form
        ``Delta0 * tanh(1.74 * sqrt(Tc/T - 1))``.
    """
    if delta0 <= 0.0 or tc <= 0.0:
        raise PhysicsError("delta0 and tc must both be > 0")
    if temperature < 0.0:
        raise PhysicsError(f"temperature must be >= 0, got {temperature}")
    if temperature >= tc:
        return 0.0
    if temperature == 0.0:
        return delta0
    t = temperature / tc
    if method == "tanh":
        return delta0 * math.tanh(1.74 * math.sqrt(1.0 / t - 1.0))
    if method != "selfconsistent":
        raise PhysicsError(f"unknown gap method {method!r}")
    ts, deltas = _universal_gap_table()
    return delta0 * float(np.interp(t, ts, deltas))


def reduced_dos(energy, delta: float):
    """BCS reduced density of states of Eq. 4.

    ``N_s(E)/N(0) = |E| / sqrt(E^2 - Delta^2)`` for ``|E| > Delta`` and
    zero inside the gap.  ``delta = 0`` returns the normal-state value 1.
    Accepts scalars or arrays; the inverse-square-root divergence at the
    gap edge is integrable and handled by the substitution quadrature in
    :mod:`repro.physics.quasiparticle`.
    """
    energy = np.asarray(energy, dtype=float)
    if delta < 0.0:
        raise PhysicsError(f"gap must be >= 0, got {delta}")
    if delta == 0.0:
        out = np.ones_like(energy)
        return out if out.ndim else float(out)
    abs_e = np.abs(energy)
    out = np.zeros_like(energy)
    outside = abs_e > delta
    out[outside] = abs_e[outside] / np.sqrt(abs_e[outside] ** 2 - delta * delta)
    return out if out.ndim else float(out)
