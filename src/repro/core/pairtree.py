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
        #: node buffer: leaves at ``[size, 2 size)``, node ``i`` holds
        #: node ``2i`` + node ``2i + 1``; allocated once, since the
        #: adaptive solver's C kernel holds its address
        self.nodes = np.zeros(2 * self._size)
        # the per-event Python path indexes a memoryview: its elements
        # are plain floats, several times faster than numpy's
        self._tree = memoryview(self.nodes)
        self.rebuild(fw, bw)

    # ------------------------------------------------------------------
    def rebuild(self, fw: np.ndarray, bw: np.ndarray) -> None:
        """Recompute the whole tree from fresh rate arrays (O(J)), one
        numpy add per level; every parent is still left + right."""
        nodes = self.nodes
        width = self._size
        nodes[width:width + self._n] = fw + bw
        nodes[width + self._n:] = 0.0
        while width > 1:
            np.add(
                nodes[width:2 * width:2], nodes[width + 1:2 * width:2],
                out=nodes[width // 2:width],
            )
            width //= 2

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
