"""Additional property-based tests (sampling tree, waveforms, tables)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import format_table
from repro.core.pairtree import PairRateTree
from repro.core.waveform import PiecewiseLinear, Sine, Square

rates = st.lists(
    st.floats(min_value=0.0, max_value=1e12, allow_nan=False),
    min_size=1, max_size=40,
)


class TestPairTreeProperties:
    @given(fw=rates)
    @settings(max_examples=50, deadline=None)
    def test_total_is_sum(self, fw):
        fw = np.array(fw)
        bw = fw[::-1].copy()
        tree = PairRateTree(fw, bw)
        assert tree.total == pytest.approx(float((fw + bw).sum()), rel=1e-9,
                                           abs=1e-12)

    @given(fw=rates, fraction=st.floats(min_value=0.0, max_value=0.999999))
    @settings(max_examples=80, deadline=None)
    def test_sample_matches_linear_scan(self, fw, fraction):
        fw = np.array(fw)
        bw = np.zeros_like(fw)
        tree = PairRateTree(fw, bw)
        if tree.total <= 0.0:
            return
        target = fraction * tree.total
        j, residual = tree.sample(target)
        cumulative = np.cumsum(fw)
        expected = min(int(np.searchsorted(cumulative, target, side="right")),
                       len(fw) - 1)
        assert j == expected
        assert 0.0 <= residual <= fw[j] + 1e-6 * tree.total + 1e-12

    @given(fw=rates, updates=st.lists(
        st.tuples(st.integers(0, 39), st.floats(0.0, 1e12)), max_size=10))
    @settings(max_examples=50, deadline=None)
    def test_updates_keep_total_consistent(self, fw, updates):
        fw = np.array(fw)
        bw = np.zeros_like(fw)
        tree = PairRateTree(fw, bw)
        leaves, values = [], []
        for j, value in updates:
            if j < len(fw):
                fw[j] = value
                leaves.append(j)
                values.append(value)
        tree.update(leaves, values)
        assert tree.total == pytest.approx(float(fw.sum()), rel=1e-9,
                                           abs=1e-12)


class TestWaveformProperties:
    @given(
        amplitude=st.floats(1e-6, 1.0), frequency=st.floats(1e3, 1e9),
        offset=st.floats(-1.0, 1.0),
        t=st.floats(0.0, 1e-3),
    )
    @settings(max_examples=100, deadline=None)
    def test_sine_bounded(self, amplitude, frequency, offset, t):
        wave = Sine(amplitude, frequency, offset)
        assert offset - amplitude - 1e-12 <= wave.value(t) <= (
            offset + amplitude + 1e-12
        )

    @given(
        low=st.floats(-1.0, 0.0), high=st.floats(0.0, 1.0),
        frequency=st.floats(1e3, 1e9), duty=st.floats(0.01, 0.99),
        t=st.floats(0.0, 1e-3),
    )
    @settings(max_examples=100, deadline=None)
    def test_square_takes_only_its_levels(self, low, high, frequency, duty, t):
        wave = Square(low, high, frequency, duty)
        assert wave.value(t) in (low, high)

    @given(data=st.data())
    @settings(max_examples=50, deadline=None)
    def test_piecewise_linear_within_hull(self, data):
        n = data.draw(st.integers(2, 6))
        times = sorted(data.draw(st.lists(
            st.floats(0.0, 1.0), min_size=n, max_size=n, unique=True)))
        values = data.draw(st.lists(
            st.floats(-1.0, 1.0), min_size=n, max_size=n))
        wave = PiecewiseLinear(tuple(times), tuple(values))
        t = data.draw(st.floats(-0.5, 1.5))
        assert min(values) - 1e-9 <= wave.value(t) <= max(values) + 1e-9


class TestTableProperties:
    @given(
        rows=st.lists(
            st.tuples(
                st.text(
                    alphabet=st.characters(
                        whitelist_categories=("L", "N", "P", "Zs")
                    ),
                    max_size=8,
                ),
                st.floats(-1e9, 1e9, allow_nan=False),
            ),
            min_size=1, max_size=8,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_every_row_rendered(self, rows):
        text = format_table(["name", "value"], [list(r) for r in rows])
        assert len(text.splitlines()) == 2 + len(rows)
