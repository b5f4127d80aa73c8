"""Host-speed reference: a fixed kernel timed next to the measured work.

On a shared host the speed a process gets drifts by tens of percent
over seconds to minutes.  The benchmark times this kernel right next
to each measured block (and around each set-up) and rescales the
block's wall time to a host on which the kernel takes
``NOMINAL_SECONDS``.  The kernel has one part for each kind of work the
workloads do: interpreted Python (the SET workloads, the adaptive
solver's BFS) and a sparse LU solve (the non-adaptive solver at
c1908).  A part that streams over a few MB of memory was tried and left
out: its own time varied more than the workloads did.  A change to the
simulator does not touch the kernel, so the rescaling removes host load
and keeps code changes.  The raw wall-clock figures are printed
alongside.
"""

from __future__ import annotations

import math
import time

#: kernel wall time the rescaled figures refer to (about what a quiet
#: 2-core x86-64 host takes)
NOMINAL_SECONDS = 0.005


class Kernel:
    """The fixed reference work; build once, then time :meth:`burst`."""

    def __init__(self) -> None:
        import numpy as np
        import scipy.sparse as sp
        import scipy.sparse.linalg as spla

        n = 70
        line = sp.diags([-1.0, 4.0, -1.0], [-1, 0, 1], shape=(n, n))
        couple = sp.diags([-1.0, -1.0], [-1, 1], shape=(n, n))
        grid = sp.kron(sp.eye(n), line) + sp.kron(couple, sp.eye(n))
        self._lu = spla.splu(grid.tocsc())
        self._rhs = np.ones(n * n)

    def burst(self) -> float:
        """Wall seconds of one run of the kernel (~5 ms)."""
        start = time.perf_counter()
        table = [0.0] * 64
        total = 0.0
        for i in range(20000):
            j = i & 63
            table[j] = table[j] * 0.5 + i
            total += math.expm1(table[j] * 1e-9)
        for _ in range(2):
            total += float(self._lu.solve(self._rhs)[0])
        return time.perf_counter() - start
