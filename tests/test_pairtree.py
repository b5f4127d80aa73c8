"""Tests for the Fenwick pair-rate sampling tree."""

import math

import numpy as np
import pytest

from repro.circuit import Superconductor, build_junction_array, build_set
from repro.constants import MEV
from repro.core import SimulationConfig
from repro.core.engine import MonteCarloEngine
from repro.core.event_solver import choose_pair
from repro.core.events import EventKind
from repro.core.pairtree import PairRateTree


class TestPairRateTree:
    def test_total_matches_sum(self, rng):
        fw = rng.random(13)
        bw = rng.random(13)
        tree = PairRateTree(fw, bw)
        assert tree.total == pytest.approx(float(np.sum(fw + bw)), rel=1e-12)

    def test_sample_agrees_with_cumsum(self, rng):
        fw = rng.random(10)
        bw = rng.random(10)
        tree = PairRateTree(fw, bw)
        pair = fw + bw
        cumulative = np.cumsum(pair)
        for target in np.linspace(1e-6, tree.total * (1 - 1e-9), 50):
            j, residual = tree.sample(target)
            expected = int(np.searchsorted(cumulative, target, side="right"))
            expected = min(expected, 9)
            assert j == expected
            base = cumulative[expected - 1] if expected else 0.0
            assert residual == pytest.approx(target - base, abs=1e-12)

    def test_update_changes_sampling(self):
        fw = np.array([1.0, 0.0, 0.0])
        bw = np.zeros(3)
        tree = PairRateTree(fw, bw)
        assert tree.sample(0.5)[0] == 0
        tree.update([0, 2], [0.0, 4.0])
        assert tree.total == pytest.approx(4.0)
        assert tree.sample(0.5)[0] == 2

    def test_update_total_consistency(self, rng):
        fw = rng.random(31)
        bw = rng.random(31)
        tree = PairRateTree(fw, bw)
        for j in (0, 7, 30, 15):
            fw[j] = rng.random()
            bw[j] = rng.random()
            tree.update([j], [fw[j] + bw[j]])
        assert tree.total == pytest.approx(float(np.sum(fw + bw)), rel=1e-12)

    def test_rebuild_resets_state(self, rng):
        fw = rng.random(5)
        bw = rng.random(5)
        tree = PairRateTree(fw, bw)
        tree.update([2], [100.0])
        tree.rebuild(fw, bw)
        assert tree.total == pytest.approx(float(np.sum(fw + bw)), rel=1e-12)

    def test_non_power_of_two_sizes(self, rng):
        for n in (1, 3, 6, 17):
            fw = rng.random(n)
            bw = rng.random(n)
            tree = PairRateTree(fw, bw)
            j, _ = tree.sample(tree.total * 0.999999)
            assert 0 <= j < n

    def test_edge_target_clamped_into_range(self):
        tree = PairRateTree(np.array([1.0, 2.0]), np.zeros(2))
        j, residual = tree.sample(3.0)  # exactly the total
        assert j == 1
        assert residual <= 2.0

    def test_sampling_distribution(self, rng):
        fw = np.array([1.0, 2.0, 3.0])
        bw = np.array([0.0, 1.0, 2.0])
        tree = PairRateTree(fw, bw)
        counts = np.zeros(3)
        n = 30000
        for _ in range(n):
            j, _ = tree.sample(rng.random() * tree.total)
            counts[j] += 1
        probabilities = (fw + bw) / (fw + bw).sum()
        np.testing.assert_allclose(counts / n, probabilities, atol=0.02)


def same_nodes(a: PairRateTree, b: PairRateTree) -> bool:
    """Every node of the two trees holds the same bits."""
    return np.array(a._tree).tobytes() == np.array(b._tree).tobytes()


class TestBatchUpdate:
    @pytest.mark.parametrize("n", [1, 2, 5, 13, 64, 100])
    def test_batch_equals_sequential_and_rebuild(self, rng, n):
        """Batches of 0 leaves (empty), 1, 3, n and 3n (duplicates, where
        the last rate listed wins) on power-of-two and other sizes."""
        fw = rng.random(n)
        bw = rng.random(n)
        for size in (0, 1, 3, n, 3 * n):
            batched = PairRateTree(fw, bw)
            sequential = PairRateTree(fw, bw)
            pair = fw + bw
            leaves = rng.integers(0, n, size=size).tolist()
            scales = 10.0 ** rng.integers(-20, 5, size)
            rates = (rng.random(size) * scales).tolist()
            batched.update(leaves, rates)
            for j, rate in zip(leaves, rates):
                sequential.update([j], [rate])
                pair[j] = rate
            rebuilt = PairRateTree(pair, np.zeros(n))
            assert same_nodes(batched, sequential)
            assert same_nodes(batched, rebuilt)


class TestRebuild:
    @staticmethod
    def loop_rebuild(fw, bw, size):
        """The per-node loop the level-wise rebuild replaced."""
        values = np.zeros(size)
        values[: len(fw)] = fw + bw
        tree = [0.0] * size + values.tolist()
        for i in range(size - 1, 0, -1):
            tree[i] = tree[2 * i] + tree[2 * i + 1]
        return np.array(tree)

    def test_levelwise_rebuild_matches_node_loop(self, rng):
        """Rates over 40 decades with zeros and subnormals, on sizes
        around powers of two; rebuilding over a used tree too."""
        for n in (1, 2, 3, 7, 8, 9, 100, 1000, 1025):
            tree = PairRateTree(np.zeros(n), np.zeros(n))
            for _ in range(5):
                fw = random_rates(rng, n)
                bw = random_rates(rng, n)
                subnormal = rng.random(n) < 0.15
                fw[subnormal] = 5e-324 * rng.integers(1, 2**40, subnormal.sum())
                tree.rebuild(fw, bw)
                expected = self.loop_rebuild(fw, bw, tree._size)
                assert np.asarray(tree.nodes)[1:].tobytes() == expected[1:].tobytes()


def random_rates(rng, n):
    """Rates spanning 40 decades with about a third of them zero."""
    rates = 10.0 ** rng.uniform(-20.0, 20.0, n)
    rates[rng.random(n) < 0.35] = 0.0
    return rates


class TestTopOfRangeDraw:
    """``rng.random() * total`` can round to just below ``total``.  A draw
    there must still land on a pair, and in a direction, whose rate is
    positive."""

    TREES = 20000

    def test_tree_draw(self, rng):
        for _ in range(self.TREES):
            n = int(rng.integers(1, 40))
            fw = random_rates(rng, n)
            bw = random_rates(rng, n)
            if not np.any(fw + bw):
                continue
            tree = PairRateTree(fw, bw)
            j, residual = tree.sample(math.nextafter(tree.total, 0.0))
            assert 0 <= j < n and fw[j] + bw[j] > 0.0
            # the adaptive solver's direction rule
            assert (fw[j] if residual < fw[j] else bw[j]) > 0.0
            assert 0.0 <= residual < fw[j] + bw[j]

    def test_array_draw(self, rng):
        for _ in range(self.TREES):
            n = int(rng.integers(1, 40))
            fw = random_rates(rng, n)
            bw = random_rates(rng, n)
            pair = fw + bw
            if not np.any(pair):
                continue
            # the caller's total is numpy's pairwise sum, not the cumsum
            target = math.nextafter(float(np.sum(pair)), 0.0)
            j, forward = choose_pair(pair, fw, target)
            assert 0 <= j < n and pair[j] > 0.0
            assert (fw[j] if forward else bw[j]) > 0.0

    def test_interior_draws_unchanged(self, rng):
        """Away from the top of the range the array draw is the plain
        cumulative search."""
        fw = random_rates(rng, 30)
        bw = random_rates(rng, 30)
        pair = fw + bw
        cumulative = np.cumsum(pair)
        for target in rng.random(2000) * cumulative[-1] * (1 - 1e-9):
            expected = int(np.searchsorted(cumulative, target, side="right"))
            residual = target - (cumulative[expected - 1] if expected else 0.0)
            assert choose_pair(pair, fw, target) == (
                expected, bool(residual < fw[expected])
            )

    def test_secondary_draw(self, rng):
        """Cooper-pair and cotunneling channels follow the pair rule: a
        target at ``nextafter(total, 0)`` that the cumulative sum of
        the secondary rates falls short of takes the last channel with
        a positive rate, never a zero-rate one at the end.  The channel
        index maps to its event: Cooper pairs forward on each junction,
        then backward, then the cotunneling paths."""
        superconductor = Superconductor(delta0=0.2 * MEV, tc=1.2)
        circuits = [(build_set(superconductor=superconductor), False)] + [
            (build_junction_array(n), True) for n in (2, 10, 41)
        ]
        solvers = [
            MonteCarloEngine(circuit, SimulationConfig(
                solver="nonadaptive", seed=1, temperature=0.05,
                include_cotunneling=cotunneling,
            )).solver
            for circuit, cotunneling in circuits
        ]
        for _ in range(self.TREES):
            solver = solvers[int(rng.integers(len(solvers)))]
            pairs = solver.n_junctions if solver.model.include_cooper_pairs else 0
            n = 2 * pairs + len(solver.model.paths)
            secondary = random_rates(rng, n)
            secondary[n - int(rng.integers(1, n + 1)):] = 0.0
            if not np.any(secondary):
                continue
            # each channel's free-energy change is its index
            index = np.arange(n, dtype=float)
            energies = (index[:pairs], index[pairs:2 * pairs], index[2 * pairs:])
            fw = random_rates(rng, solver.n_junctions)
            bw = random_rates(rng, solver.n_junctions)
            # residence-time draw, then the top of the range:
            # (1 - 2**-53) * total rounds to nextafter(total, 0)
            solver.rng = TopOfRange()
            zeros = np.zeros(solver.n_junctions)
            event = solver._select_and_apply(fw, bw, secondary, energies, zeros, zeros)
            if event.kind is EventKind.SEQUENTIAL:
                assert (fw + bw)[event.junction] > 0.0
                continue
            k = int(event.dw)
            assert secondary[k] > 0.0
            if event.kind is EventKind.COOPER_PAIR:
                assert k < 2 * pairs and event.n_electrons == 2
                assert (event.junction, event.direction) == (
                    (k, +1) if k < pairs else (k - pairs, -1)
                )
            else:
                assert event.path is solver.model.paths[k - 2 * pairs]
                assert event.junction == event.path.junction_in


class TopOfRange:
    """Generator stand-in: ``random()`` gives 0.5, then ``1 - 2**-53``."""

    def __init__(self):
        self._draws = iter((0.5, 1.0 - 2.0 ** -53))

    def random(self):
        return next(self._draws)
