"""Fenwick (binary-indexed) tree over per-junction rate pairs.

Kinetic Monte Carlo needs two operations per event: the total rate and
a categorical draw.  The conventional solver recomputes every rate
anyway, so an O(J) cumulative sum costs nothing extra; the adaptive
solver touches only a handful of junctions per event, and an O(J)
cumsum would put a floor under its speedup.  This tree keeps the
junction pair-sums ``fw[j] + bw[j]`` in a Fenwick structure: updates
and draws are O(log J), which is what lets the measured Fig. 6 speedup
keep growing with circuit size.
"""

from __future__ import annotations

import math

import numpy as np


class PairRateTree:
    """Sampling tree over ``fw[j] + bw[j]`` junction rate pairs."""

    def __init__(self, fw: np.ndarray, bw: np.ndarray):
        self._n = len(fw)
        self._size = 1
        while self._size < self._n:
            self._size *= 2
        # plain Python floats: scalar index/update is several times
        # faster than numpy element access in the per-event hot path
        self._tree = [0.0] * (2 * self._size)
        self.rebuild(fw, bw)

    # ------------------------------------------------------------------
    def rebuild(self, fw: np.ndarray, bw: np.ndarray) -> None:
        """Recompute the whole tree from fresh rate arrays (O(J))."""
        values = np.zeros(self._size)
        values[: self._n] = fw + bw
        tree = self._tree
        tree[self._size:] = values.tolist()
        for i in range(self._size - 1, 0, -1):
            tree[i] = tree[2 * i] + tree[2 * i + 1]

    def update(self, leaves: list[int], pair_rates: list[float]) -> None:
        """Set the pair rates of a batch of junctions, then repair the
        union of their ancestors once, level by level.

        Every repaired node is the sum of its final children, so the
        tree equals the one that one-leaf-at-a-time repairs (or a full
        :meth:`rebuild`) would leave, bit for bit; a junction listed
        twice keeps its last rate.
        """
        size = self._size
        tree = self._tree
        for j, pair_rate in zip(leaves, pair_rates):
            tree[size + j] = pair_rate
        # every leaf sits at the same depth, so each pass holds one
        # level; with a single leaf (size 1) the leaf is the root
        nodes = {(size + j) >> 1 for j in leaves}
        while nodes and 0 not in nodes:
            for i in nodes:
                tree[i] = tree[2 * i] + tree[2 * i + 1]
            nodes = {i >> 1 for i in nodes}

    @property
    def total(self) -> float:
        """Total rate over all junction pairs."""
        return float(self._tree[1])

    def sample(self, target: float) -> tuple[int, float]:
        """Find the junction whose cumulative interval contains
        ``target``; returns ``(junction, residual within its pair)``."""
        i = 1
        tree = self._tree
        while i < self._size:
            left = tree[2 * i]
            if target < left:
                i = 2 * i
            else:
                target -= left
                i = 2 * i + 1
        j = i - self._size
        if j >= self._n or not target < tree[i]:
            # rounding carried the target past the top of its interval
            # (a draw at the very top of the range): take the top of the
            # last pair with a positive rate, so that neither the pair
            # nor, through ``residual < fw``, its direction has rate 0
            j = min(j, self._n - 1)
            while j > 0 and not tree[self._size + j] > 0.0:
                j -= 1
            target = math.nextafter(tree[self._size + j], 0.0)
        return j, float(target)
