"""Tests for quasi-particle tunneling (Eq. 3) and its rate tables."""

import math

import numpy as np
import pytest

from repro.constants import E_CHARGE, K_B, MEV
from repro.errors import PhysicsError
from repro.physics.bcs import bcs_gap
from repro.physics.orthodox import orthodox_rate
from repro.physics.quasiparticle import (
    QuasiparticleRateTable,
    qp_current,
    qp_rate,
)

DELTA = 0.2 * MEV
R = 1e5


class TestQpRate:
    def test_reduces_to_orthodox_when_gaps_vanish(self):
        for dw in (-5e-23, -1e-23, 1e-23):
            assert qp_rate(dw, R, 0.0, 0.0, 1.0) == pytest.approx(
                float(orthodox_rate(dw, R, 1.0)), rel=1e-9
            )

    def test_gapped_at_zero_temperature(self):
        # no quasi-particle transport unless the energy gain exceeds
        # Delta1 + Delta2
        dw = -1.5 * DELTA
        assert qp_rate(dw, R, DELTA, DELTA, 0.0) == 0.0

    def test_flows_beyond_combined_gap_at_zero_temperature(self):
        dw = -3.0 * DELTA
        assert qp_rate(dw, R, DELTA, DELTA, 0.0) > 0.0

    def test_ohmic_asymptote_far_beyond_gap(self):
        dw = -60.0 * DELTA
        rate = qp_rate(dw, R, DELTA, DELTA, 0.05)
        ohmic = -dw / (E_CHARGE**2 * R)
        assert rate == pytest.approx(ohmic, rel=0.08)

    def test_detailed_balance(self):
        t = 0.5
        dw = 2.2 * DELTA
        forward = qp_rate(-dw, R, DELTA, DELTA, t)
        backward = qp_rate(+dw, R, DELTA, DELTA, t)
        assert backward / forward == pytest.approx(
            np.exp(-dw / (K_B * t)), rel=1e-3
        )

    def test_subgap_thermal_rate_is_finite_at_finite_temperature(self):
        # thermally excited quasi-particles give sub-gap transport -
        # the origin of the singularity-matching features
        rate_cold = qp_rate(-0.5 * DELTA, R, DELTA, DELTA, 0.1)
        rate_warm = qp_rate(-0.5 * DELTA, R, DELTA, DELTA, 0.8)
        assert rate_warm > rate_cold

    def test_rejects_bad_resistance(self):
        with pytest.raises(PhysicsError):
            qp_rate(-1e-23, -1e5, DELTA, DELTA, 1.0)

    def test_rejects_negative_gap(self):
        with pytest.raises(PhysicsError):
            qp_rate(-1e-23, R, -DELTA, DELTA, 1.0)


class TestQpCurrent:
    def test_antisymmetric_in_voltage(self):
        v = 3.0 * DELTA / E_CHARGE
        ip = qp_current(+v, R, DELTA, DELTA, 0.1)
        im = qp_current(-v, R, DELTA, DELTA, 0.1)
        assert ip == pytest.approx(-im, rel=1e-9)

    def test_gap_structure_in_iv(self):
        t = 0.05
        v_below = 1.0 * DELTA / E_CHARGE
        v_above = 4.0 * DELTA / E_CHARGE
        i_below = qp_current(v_below, R, DELTA, DELTA, t)
        i_above = qp_current(v_above, R, DELTA, DELTA, t)
        assert abs(i_below) < 1e-3 * abs(i_above)

    def test_ohmic_far_above_gap(self):
        v = 100.0 * DELTA / E_CHARGE
        assert qp_current(v, R, DELTA, DELTA, 0.1) == pytest.approx(
            v / R, rel=0.05
        )


class TestRateTable:
    @pytest.fixture(scope="class")
    def table(self):
        return QuasiparticleRateTable(R, DELTA, DELTA, 0.3, n_points=2001)

    def test_matches_direct_quadrature_inside_span(self, table):
        for dw in (-4.0 * DELTA, -2.5 * DELTA, 0.7 * DELTA):
            direct = qp_rate(dw, R, DELTA, DELTA, 0.3)
            assert table(dw) == pytest.approx(direct, rel=2e-2, abs=1e-12)

    def test_extends_ohmically_below_span(self, table):
        # the extension is the shifted ohmic rate with a continuity
        # factor matched at the table edge; far below the span it must
        # agree with direct quadrature to a few percent
        dw = -3.0 * table.dw_max
        direct = qp_rate(dw, R, DELTA, DELTA, 0.3)
        assert table(dw) == pytest.approx(direct, rel=0.05)

    def test_extension_continuous_at_span_edge(self, table):
        inside = table(-table.dw_max * (1.0 - 1e-9))
        outside = table(-table.dw_max * (1.0 + 1e-9))
        assert outside == pytest.approx(inside, rel=1e-3)

    def test_vanishes_above_span(self, table):
        assert table(+3.0 * table.dw_max) == 0.0

    def test_vector_evaluation(self, table):
        dw = np.linspace(-5 * DELTA, 5 * DELTA, 11)
        out = table(dw)
        assert out.shape == dw.shape
        assert np.all(out >= 0.0)

    def test_rejects_tiny_table(self):
        with pytest.raises(PhysicsError):
            QuasiparticleRateTable(R, DELTA, DELTA, 0.3, n_points=2)


class TestScalarLookup:
    """A float lookup must give the array lookup's bits: the solvers'
    scalar route reproduces ``np.interp`` and the numpy extension, so
    no event stream depends on which route ran."""

    @pytest.fixture(scope="class", params=[0.0, 0.05, 0.52], ids=lambda t: f"T={t}")
    def table(self, request):
        temperature = request.param
        gap = bcs_gap(temperature, DELTA, 1.2)
        # the span TunnelingModel gives its tables
        span = 32.0 * gap + 120.0 * K_B * temperature
        return QuasiparticleRateTable(1e6, gap, gap, temperature, dw_max=span)

    @staticmethod
    def arguments(table, rng):
        grid = table._grid
        span = table.dw_max
        return np.concatenate([
            grid,
            np.nextafter(grid, -np.inf),
            np.nextafter(grid, np.inf),
            [-span, span, grid[0], grid[-1]],
            rng.uniform(-1.3 * span, 1.3 * span, 20000),
            -span * 10.0 ** rng.uniform(0.0, 4.0, 5000),
        ])

    def test_scalar_route_matches_array_route_bit_for_bit(self, table, rng):
        mismatches = []
        for x in self.arguments(table, rng).tolist():
            scalar = table(x)
            array = table(np.array([x]))[0]
            if scalar.hex() != float(array).hex():
                mismatches.append((x.hex(), scalar.hex(), float(array).hex()))
        assert not mismatches, mismatches[:5]

    def test_extension_uses_numpy_expm1(self, rng):
        """Below a span of a few kT the extension's ``expm1`` arguments
        are moderate, where libm's and numpy's results may differ in
        the last bit; the float route must round as numpy does."""
        temperature = 0.52
        kt = K_B * temperature
        table = QuasiparticleRateTable(
            1e6, 0.01 * kt, 0.01 * kt, temperature, dw_max=2.0 * kt, n_points=101
        )
        for x in (-2.0 * kt - kt * rng.uniform(0.0, 30.0, 20000)).tolist():
            assert table(x).hex() == float(table(np.array([x]))[0]).hex(), x

    def test_nan_in_nan_out(self, table):
        assert math.isnan(table(math.nan))
        assert math.isnan(table(np.array([math.nan]))[0])

    def test_numpy_scalars_take_the_float_route(self, table, monkeypatch):
        xs = [0.3 * table.dw_max, -0.7 * table.dw_max, -5.0 * table.dw_max]
        expected = [table(np.array([x]))[0] for x in xs]

        def no_interp(*args, **kwargs):
            raise AssertionError("the array route ran")

        monkeypatch.setattr(np, "interp", no_interp)
        for x, want in zip(xs, expected):
            got = table(np.float64(x))
            assert type(got) is float
            assert got.hex() == float(want).hex()
