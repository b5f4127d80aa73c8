"""Quasi-particle tunneling between superconducting electrodes (Eq. 3).

The golden-rule rate for an event whose free-energy change is ``dW``::

    Gamma(dW) = 1/(e^2 R) * integral dE  rho1(E) rho2(E - dW)
                                         f(E) [1 - f(E - dW)]

with ``rho`` the BCS reduced DOS (Eq. 4).  Dividing the corresponding
current (Eq. 3) by the thermal factor of Eq. 1 gives the same function;
we evaluate the golden-rule form directly because it stays numerically
stable deep in the blockade.

The integrand has inverse-square-root singularities at the four gap
edges ``+-Delta1`` and ``dW +- Delta2``.  Each integration segment that
touches a singular endpoint is mapped through ``E = edge +- s * t^2``,
which removes the singularity exactly, then integrated with
Gauss-Legendre quadrature.  A per-junction lookup table over ``dW``
makes the Monte Carlo inner loop cheap: superconducting rates reduce to
one bisection and one linear interpolation on Python floats per
junction and direction, exactly the sort of precomputation a
production simulator performs.

This machinery also produces the *singularity-matching* sub-gap
features of Fig. 5 automatically: at finite temperature the thermally
excited quasi-particles populate the singular DOS just above the gap,
and the E-integral peaks whenever the two singularities align.
"""

from __future__ import annotations

from bisect import bisect_right

import numpy as np

from repro.constants import E_CHARGE, K_B
from repro.errors import PhysicsError
from repro.physics.bcs import reduced_dos
from repro.physics.fermi import fermi
from repro.physics.orthodox import orthodox_rate

#: Gauss-Legendre order used on every integration (sub)segment.
_GL_ORDER = 64
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(_GL_ORDER)
#: Half-width of the thermal window in units of kT.
_THERMAL_WINDOW = 45.0


def _integrand(e: np.ndarray, dw: float, delta1: float, delta2: float,
               temperature: float) -> np.ndarray:
    rho = reduced_dos(e, delta1) * reduced_dos(e - dw, delta2)
    occ = fermi(e, temperature) * (1.0 - fermi(e - dw, temperature))
    return rho * occ


def _gauss_segment(lo: float, hi: float, func) -> float:
    """Plain Gauss-Legendre integral of ``func`` over ``[lo, hi]``."""
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    return half * float(np.sum(_GL_WEIGHTS * func(mid + half * _GL_NODES)))


def _sqrt_segment(edge: float, other: float, func) -> float:
    """Integral over ``[edge, other]`` with a 1/sqrt singularity at ``edge``.

    Substituting ``E = edge + (other - edge) * t^2`` (``t`` in [0, 1])
    turns the integrable singularity into a bounded integrand.
    """
    span = other - edge
    # map Gauss nodes from [-1, 1] to [0, 1]
    t = 0.5 * (_GL_NODES + 1.0)
    values = func(edge + span * t * t) * 2.0 * abs(span) * t
    # |span| orients the result from the low end to the high end of the
    # segment regardless of which endpoint carries the singularity.
    return 0.5 * float(np.sum(_GL_WEIGHTS * values))


def qp_rate(dw: float, resistance: float, delta1: float, delta2: float,
            temperature: float) -> float:
    """Quasi-particle tunneling rate (1/s) for free-energy change ``dw``.

    ``delta1``/``delta2`` are the gaps of the source/destination
    electrodes in joules; either may be zero (normal electrode).
    """
    if resistance <= 0.0:
        raise PhysicsError(f"resistance must be > 0, got {resistance}")
    if delta1 < 0.0 or delta2 < 0.0:
        raise PhysicsError("gaps must be >= 0")
    if delta1 == 0.0 and delta2 == 0.0:
        return float(orthodox_rate(dw, resistance, temperature))

    kt = K_B * temperature
    # f(E) kills the integrand above +window; 1 - f(E - dW) kills it
    # below dW - window.  At T = 0 the occupied window collapses to
    # [dW, 0], which is empty for unfavourable events.
    window = _THERMAL_WINDOW * kt
    lo = dw - window
    hi = window
    if lo >= hi:
        return 0.0

    edges = {-delta1, delta1, dw - delta2, dw + delta2}
    points = sorted({lo, hi, *(p for p in edges if lo < p < hi)})

    def func(e: np.ndarray) -> np.ndarray:
        return _integrand(e, dw, delta1, delta2, temperature)

    total = 0.0
    for p, q in zip(points[:-1], points[1:]):
        if q - p <= 0.0:
            continue
        mid = 0.5 * (p + q)
        if reduced_dos(mid, delta1) == 0.0 or reduced_dos(mid - dw, delta2) == 0.0:
            continue  # segment lies inside a gap
        p_singular = p in edges
        q_singular = q in edges
        if p_singular and q_singular:
            total += _sqrt_segment(p, mid, func)
            total += _sqrt_segment(q, mid, func)
        elif p_singular:
            total += _sqrt_segment(p, q, func)
        elif q_singular:
            total += _sqrt_segment(q, p, func)
        else:
            total += _gauss_segment(p, q, func)
    return total / (E_CHARGE * E_CHARGE * resistance)


def qp_current(voltage: float, resistance: float, delta1: float, delta2: float,
               temperature: float) -> float:
    """Quasi-particle I-V of a single voltage-biased junction (Eq. 3).

    The net current is ``e * (Gamma(-eV) - Gamma(+eV))``: across a bare
    junction the free-energy change of a favourable transfer is
    ``-eV``.
    """
    fwd = qp_rate(-E_CHARGE * voltage, resistance, delta1, delta2, temperature)
    bwd = qp_rate(+E_CHARGE * voltage, resistance, delta1, delta2, temperature)
    return E_CHARGE * (fwd - bwd)


class QuasiparticleRateTable:
    """Tabulated ``Gamma_qp(dW)`` for one junction.

    Building the table costs a few thousand quadratures once.  A scalar
    lookup (a Python float or ``np.float64``) is a bisection and one
    linear interpolation on Python floats, with the bits ``np.interp``
    gives; an array lookup is one ``np.interp``.  Outside the tabulated
    span the rate is extended by its asymptotes (ohmic orthodox rate far
    below, zero far above), which the tests check against direct
    quadrature.  The table is read-only, so engines may share it.
    """

    def __init__(
        self,
        resistance: float,
        delta1: float,
        delta2: float,
        temperature: float,
        dw_max: float | None = None,
        n_points: int = 4001,
    ):
        if n_points < 3:
            raise PhysicsError("table needs at least 3 points")
        self.resistance = resistance
        self.delta1 = delta1
        self.delta2 = delta2
        self.temperature = temperature
        if dw_max is None:
            dw_max = 12.0 * (delta1 + delta2) + 120.0 * K_B * temperature
            dw_max = max(dw_max, 1e-22)
        self.dw_max = dw_max
        self._grid = np.linspace(-dw_max, dw_max, n_points)
        self._rates = np.array(
            [qp_rate(dw, resistance, delta1, delta2, temperature) for dw in self._grid]
        )
        self._grid.flags.writeable = False
        self._rates.flags.writeable = False
        # the scalar route indexes the tables through memoryviews, which
        # give plain floats without copying them
        self._grid_view = memoryview(self._grid)
        self._rates_view = memoryview(self._rates)
        # continuity factor matching the ohmic extension to the table's
        # lower edge, so rates stay smooth across the span boundary
        edge_ohmic = float(
            orthodox_rate(self._grid[0] + delta1 + delta2, resistance, temperature)
        )
        self._extension_scale = (
            float(self._rates[0]) / edge_ohmic if edge_ohmic > 0.0 else 1.0
        )

    def __call__(self, dw):
        """Interpolated rate; accepts scalars or arrays."""
        if isinstance(dw, float):  # np.float64 is a float subclass
            return self._rate(float(dw))
        dw_arr = np.asarray(dw, dtype=float)
        out = np.interp(dw_arr, self._grid, self._rates)
        below = dw_arr < self._grid[0]
        if np.any(below):
            # Deep ohmic regime: gaps are negligible, the junction is
            # effectively normal with an offset of (delta1 + delta2);
            # the continuity factor removes the O(5%) step at the edge.
            shifted = dw_arr[below] + self.delta1 + self.delta2
            out = np.array(out, copy=True)
            out[below] = self._extension_scale * orthodox_rate(
                shifted, self.resistance, self.temperature
            )
        above = dw_arr > self._grid[-1]
        if np.any(above):
            out = np.array(out, copy=True)
            out[above] = 0.0
        return out if out.ndim else float(out)

    def _rate(self, x: float) -> float:
        """The array route's value for one float, without numpy calls
        inside the span: the interval search and the interpolation of
        numpy's ``arr_interp``, operation for operation."""
        grid = self._grid_view
        if x != x:
            return x
        if x > grid[-1]:
            return 0.0
        if x < grid[0]:
            return self._extension(x)
        # grid[j] <= x < grid[j + 1], or j the last point
        j = bisect_right(grid, x) - 1
        rates = self._rates_view
        y0 = rates[j]
        x0 = grid[j]
        if x == x0 or j == len(grid) - 1:
            return y0
        x1 = grid[j + 1]
        y1 = rates[j + 1]
        slope = (y1 - y0) / (x1 - x0)
        out = slope * (x - x0) + y0
        if out != out:
            # numpy's retry from the other end of the interval
            out = slope * (x - x1) + y1
            if out != out and y0 == y1:
                out = y0
        return out

    def _extension(self, x: float) -> float:
        """The ohmic extension below the span for one float:
        ``orthodox_rate`` of the shifted energy along ``bose_weight``'s
        branches, with numpy's ``expm1`` (libm's may round the last bit
        differently)."""
        energy = x + self.delta1 + self.delta2
        if self.temperature == 0.0:
            weight = -energy if energy < 0.0 else 0.0
        else:
            kt = K_B * self.temperature
            y = energy / kt
            if abs(y) < 1e-12:
                weight = kt
            elif y > 500.0:
                weight = 0.0
            else:
                weight = energy / float(np.expm1(y))
        return self._extension_scale * (
            weight / (E_CHARGE * E_CHARGE * self.resistance)
        )
