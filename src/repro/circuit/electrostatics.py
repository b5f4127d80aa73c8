"""Electrostatics of single-electron circuits.

Everything the rate equations need from the circuit reduces to linear
algebra on the Maxwell capacitance matrix ``C`` restricted to islands:

* island potentials      ``v = C^-1 (q + C_x V_ext)``         (nodal law)
* free-energy change     Eq. 2 of the paper, generalised to a charge
  ``dq`` moving from node ``a`` to node ``b``::

      dW = dq * (phi_b - phi_a) + dq^2/2 * (K_aa - 2 K_ab + K_bb)

  where ``K = C^-1`` and entries involving externally pinned nodes are
  zero (a lead has no charging self-energy).

Two backends are provided: a dense explicit inverse for small/medium
circuits and a sparse LU factorisation for the large logic benchmarks
(thousands of islands).  ``C^-1`` is block-diagonal over the circuit's
capacitive components (islands linked by junctions or capacitors), and
both backends use that: island ``k``'s *span* ``[lo, hi)`` runs from
the smallest to one past the largest island index of its component,
and column ``k`` of ``C^-1`` is zero outside it.  The dense backend
keeps the full C-ordered inverse, which :meth:`Electrostatics.potentials`
multiplies; the sparse backend stores each column packed, its span rows
only, formed once from the LU factors a block of columns per solve
(each island's span length in floats, rather than n: 95 MiB instead
of 210 MiB at c1908).  Potentials are still solved through the
LU factors there.  Either store is read through one
:class:`CinvLayout`, and an event's potential update touches its
component's span only.

``C^-1`` and ``q0`` are read-only: one :class:`Electrostatics` is shared
by every engine on a circuit (:meth:`Circuit.prepared_electrostatics`).
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from repro.circuit.circuit import Circuit
from repro.circuit.components import NodeRef
from repro.constants import E_CHARGE
from repro.errors import CircuitError

#: Circuits up to this many islands use the dense inverse backend.
DENSE_LIMIT_DEFAULT = 1200

#: Right-hand sides per sparse LU solve when forming ``C^-1``.  SuperLU
#: hands multi-column solves to BLAS per supernode.  On c432 (2 cores,
#: threaded OpenBLAS, busy host) a column cost 87 us alone, 36 us in
#: blocks of 16 and 7 ms in blocks of 256; single-threaded, wider
#: blocks than 16 gained nothing on c1908.
SOLVE_BLOCK = 16

#: Condition number above which an island group counts as floating.
FLOATING_CONDITION = 1e12

_FLOATING_MESSAGE = (
    "capacitance matrix is singular or not positive definite; "
    "a group of islands has no capacitive path to a fixed "
    "potential (add a ground/gate capacitor or a source)"
)


def assemble_capacitance(circuit: Circuit) -> tuple[sp.csc_matrix, sp.csr_matrix]:
    """Assemble the island-restricted Maxwell capacitance matrices.

    Returns ``(C, C_x)``: the ``n_islands x n_islands`` Maxwell matrix
    and the ``n_islands x n_external`` island/lead coupling matrix.
    Shared by :class:`Electrostatics` and the static analyzer in
    :mod:`repro.lint`, which needs the matrices *without* the
    positive-definiteness gate (a lint pass reports singularity as a
    diagnostic instead of raising).
    """
    n = circuit.n_islands
    m = circuit.n_external

    diag = np.zeros(n)
    rows: list[int] = []
    cols: list[int] = []
    vals: list[float] = []
    xrows: list[int] = []
    xcols: list[int] = []
    xvals: list[float] = []

    def couple(ref_a: NodeRef, ref_b: NodeRef, c: float) -> None:
        for ref in (ref_a, ref_b):
            if ref.is_island:
                diag[ref.index] += c
        if ref_a.is_island and ref_b.is_island:
            rows.extend((ref_a.index, ref_b.index))
            cols.extend((ref_b.index, ref_a.index))
            vals.extend((-c, -c))
        elif ref_a.is_island:
            xrows.append(ref_a.index)
            xcols.append(ref_b.index)
            xvals.append(c)
        elif ref_b.is_island:
            xrows.append(ref_b.index)
            xcols.append(ref_a.index)
            xvals.append(c)

    for rj in circuit.resolved_junctions():
        couple(rj.ref_a, rj.ref_b, rj.capacitance)
    for cap in circuit.capacitors:
        couple(
            circuit.node_refs[cap.node_a],
            circuit.node_refs[cap.node_b],
            cap.capacitance,
        )

    cmat = sp.coo_matrix(
        (np.concatenate([diag, np.array(vals)]) if vals else diag,
         (np.concatenate([np.arange(n), np.array(rows, dtype=int)]) if rows
          else np.arange(n),
          np.concatenate([np.arange(n), np.array(cols, dtype=int)]) if cols
          else np.arange(n))),
        shape=(n, n),
    ).tocsc()
    cx = sp.coo_matrix(
        (np.array(xvals), (np.array(xrows, dtype=int), np.array(xcols, dtype=int)))
        if xvals
        else (np.zeros(0), (np.zeros(0, dtype=int), np.zeros(0, dtype=int))),
        shape=(n, m),
    ).tocsr()
    return cmat, cx


def island_components(adjacency) -> list[list[int]]:
    """The connected components of an island adjacency list
    (:meth:`Circuit.island_adjacency`), each in ascending island order,
    ordered by their smallest island."""
    seen = [False] * len(adjacency)
    components = []
    for root in range(len(adjacency)):
        if seen[root]:
            continue
        seen[root] = True
        component = [root]
        for island in component:  # breadth-first: the list is the queue
            for other in adjacency[island]:
                if not seen[other]:
                    seen[other] = True
                    component.append(other)
        components.append(sorted(component))
    return components


class CinvLayout(NamedTuple):
    """Where the stored ``C^-1`` entries live, the same way for both
    backends: entry ``(i, k)`` for ``lo[k] <= i < hi[k]`` is
    ``values[offset[k] + (i - lo[k]) * row]``, and every entry outside
    island ``k``'s span ``[lo[k], hi[k])`` is zero.

    The dense backend's ``values`` is its C-ordered ``n x n`` inverse
    flattened (``offset[k] = lo[k] * n + k``, ``row = n``); the sparse
    backend's is the packed columns end to end (``row = 1``).
    """

    values: np.ndarray
    offset: np.ndarray
    row: int
    lo: np.ndarray
    hi: np.ndarray


class Electrostatics:
    """Capacitance-matrix solver for a frozen :class:`Circuit`.

    Parameters
    ----------
    circuit:
        The circuit to analyse.
    dense_limit:
        Island-count threshold above which the sparse backend is used.
    """

    def __init__(self, circuit: Circuit, dense_limit: int = DENSE_LIMIT_DEFAULT):
        n = circuit.n_islands
        self._n = n

        if n == 0:
            raise CircuitError(
                "circuit has no islands; every node is pinned by a source, "
                "so there is no charge dynamics to simulate"
            )

        cmat, self._cx = assemble_capacitance(circuit)
        self._cmat = cmat
        self._island_labels = circuit.island_labels
        components = island_components(circuit.island_adjacency())
        self._component_sizes = [len(c) for c in components]
        lo = np.empty(n, dtype=np.int64)
        hi = np.empty(n, dtype=np.int64)
        for component in components:
            lo[component] = component[0]
            hi[component] = component[-1] + 1
        self._spans = list(zip(lo.tolist(), hi.tolist()))

        self._dense = n <= dense_limit
        if self._dense:
            dense_c = cmat.toarray()
            floating = False
            try:
                # Cholesky doubles as the positive-definiteness check;
                # the condition bound catches islands whose only anchor
                # is float rounding (an exactly floating group gives a
                # numerically tiny pivot instead of a clean failure).
                np.linalg.cholesky(dense_c)
                floating = np.linalg.cond(dense_c) > FLOATING_CONDITION
            except np.linalg.LinAlgError:
                floating = True
            if floating:
                raise CircuitError(_FLOATING_MESSAGE)
            self._lu = None
            self._cinv = np.linalg.inv(dense_c)
            self._cinv.flags.writeable = False
            stray = self._stray_column(self._cinv, 0, lo, hi)
            if stray is not None:
                raise self._stray_error(stray)
            values = self._cinv.reshape(-1)
            offset = lo * n + np.arange(n)
            row = n
        else:
            try:
                self._lu = spla.splu(cmat)
            except RuntimeError as exc:  # pragma: no cover - splu failure path
                raise CircuitError(
                    "capacitance matrix factorisation failed; check that every "
                    "island group couples to a fixed potential"
                ) from exc
            offset = np.zeros(n, dtype=np.int64)
            np.cumsum((hi - lo)[:-1], out=offset[1:])
            values = self._packed_inverse(lo, hi, offset)
            row = 1
        for array in (values, offset, lo, hi):
            array.flags.writeable = False
        self._layout = CinvLayout(values, offset, row, lo, hi)
        # per island: the span rows of its column, a view of the store
        self._columns = [
            values[start:start + (last - first) * row:row]
            for start, (first, last) in zip(offset.tolist(), self._spans)
        ]
        self._q0 = circuit.background_charge_vector()
        self._q0.flags.writeable = False

    def _stray_column(
        self, block: np.ndarray, start: int, lo: np.ndarray, hi: np.ndarray
    ) -> int | None:
        """The first island among ``start, start + 1, ...`` whose
        ``C^-1`` column (in ``block``) is not exactly zero outside its
        component span, or ``None``: the packed store and every
        potential update rely on there being none."""
        if len(self._component_sizes) == 1:
            return None  # every span is [0, n): nothing lies outside
        nonzero = block != 0.0  # NaN counts as non-zero
        first = nonzero.argmax(axis=0)
        last = self._n - 1 - nonzero[::-1].argmax(axis=0)
        stop = start + block.shape[1]
        stray = np.flatnonzero((first < lo[start:stop]) | (last >= hi[start:stop]))
        return start + int(stray[0]) if stray.size else None

    def _stray_error(self, island: int) -> CircuitError:
        lo, hi = self.component_span(island)
        return CircuitError(
            f"C^-1 column of island {self._island_labels[island]!r} "
            f"(index {island}) is non-zero outside its capacitive "
            f"component's islands {lo}..{hi - 1}"
        )

    def _packed_inverse(
        self, lo: np.ndarray, hi: np.ndarray, offset: np.ndarray
    ) -> np.ndarray:
        """``C^-1`` from the LU factors, :data:`SOLVE_BLOCK` columns per
        solve, each column packed to its span rows at ``offset``.

        SuperLU solves the columns of a block independently, so every
        stored entry is bit-identical to a single right-hand-side solve.
        Raises :class:`CircuitError` when the 1-norm condition number
        ``||C||_1 ||C^-1||_1`` exceeds :data:`FLOATING_CONDITION`: LU
        factorisation succeeds on a floating group whose pivots are
        only float rounding, and returns entries around ``1e33``.  The
        span check comes after it, so a floating group is reported as
        one.
        """
        n = self._n
        offset_list = offset.tolist()
        first, last = self._spans[-1]
        values = np.empty(offset_list[-1] + last - first)
        column_norms = np.empty(n)
        stray = None
        for start in range(0, n, SOLVE_BLOCK):
            stop = min(start + SOLVE_BLOCK, n)
            rhs = np.zeros((n, stop - start), order="F")
            rhs[np.arange(start, stop), np.arange(stop - start)] = 1.0
            block = self._lu.solve(rhs)
            column_norms[start:stop] = np.abs(block).sum(axis=0)
            if stray is None:
                stray = self._stray_column(block, start, lo, hi)
            # consecutive islands of one component (one lo) have the same
            # span and adjacent packed columns: one copy per run
            k = start
            while k < stop:
                first, last = self._spans[k]
                end = k + 1
                while end < stop and self._spans[end][0] == first:
                    end += 1
                at = offset_list[k]
                values[at:at + (end - k) * (last - first)].reshape(
                    end - k, last - first
                )[...] = block[first:last, k - start:end - start].T
                k = end
        condition = spla.norm(self._cmat, 1) * column_norms.max()
        if not condition <= FLOATING_CONDITION:  # NaN counts as floating
            raise CircuitError(_FLOATING_MESSAGE)
        if stray is not None:
            raise self._stray_error(stray)
        return values

    # ------------------------------------------------------------------
    # basic queries
    # ------------------------------------------------------------------
    @property
    def n_islands(self) -> int:
        return self._n

    @property
    def is_dense(self) -> bool:
        return self._dense

    @property
    def component_sizes(self) -> list[int]:
        """Island count of each capacitive component, ordered by the
        component's smallest island."""
        return list(self._component_sizes)

    @property
    def cinv_nbytes(self) -> int:
        """Bytes held by the ``C^-1`` store (``n^2`` floats dense,
        the packed span columns sparse)."""
        return self._layout.values.nbytes

    @property
    def background_charge(self) -> np.ndarray:
        """Offset charge vector ``q0`` (coulombs), one entry per island."""
        return self._q0

    def capacitance_matrix(self) -> np.ndarray:
        """The Maxwell capacitance matrix over islands (dense copy)."""
        return self._cmat.toarray()

    @property
    def cinv_layout(self) -> CinvLayout:
        """The read-only ``C^-1`` store and how to index it."""
        return self._layout

    def component_span(self, island: int) -> tuple[int, int]:
        """``(lo, hi)``: island ``island``'s component spans islands
        ``lo`` to ``hi - 1``, and its ``C^-1`` column is zero outside."""
        return self._spans[island]

    def cinv_column(self, island: int) -> np.ndarray:
        """Column ``island`` of ``C^-1``, full length (a read-only copy)."""
        column = np.zeros(self._n)
        lo, hi = self.component_span(island)
        column[lo:hi] = self._columns[island]
        column.flags.writeable = False
        return column

    def cinv_entry(self, row: int, col: int) -> float:
        """Single entry of ``C^-1``."""
        lo, hi = self._spans[col]
        if not lo <= row < hi:
            return 0.0
        return float(self._columns[col][row - lo])

    def cinv_entries(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """Entries ``C^-1[rows[k], cols[k]]`` gathered into one array."""
        entry = self.cinv_entry
        return np.array(
            [entry(row, col) for row, col in zip(np.asarray(rows).tolist(),
                                                  np.asarray(cols).tolist())],
            dtype=float,
        )

    # ------------------------------------------------------------------
    # potentials
    # ------------------------------------------------------------------
    def island_charges(self, occupation: np.ndarray) -> np.ndarray:
        """Total island charge ``q = -e*n + q0`` for integer occupations."""
        return -E_CHARGE * occupation + self._q0

    def potentials(self, occupation: np.ndarray, vext: np.ndarray) -> np.ndarray:
        """Island potentials for the given occupation and source voltages."""
        rhs = self.island_charges(occupation) + self._cx @ vext
        if self._dense:
            return self._cinv @ rhs
        return self._lu.solve(rhs)

    def node_potential(
        self, ref: NodeRef, v_islands: np.ndarray, vext: np.ndarray
    ) -> float:
        """Potential of any node given precomputed island potentials."""
        if ref.is_island:
            return float(v_islands[ref.index])
        return float(vext[ref.index])

    # ------------------------------------------------------------------
    # free energy and updates
    # ------------------------------------------------------------------
    def charging_coefficient(self, ref_a: NodeRef, ref_b: NodeRef) -> float:
        """``K_aa - 2 K_ab + K_bb`` with lead entries taken as zero.

        Multiplying by ``dq^2 / 2`` gives the charging self-energy of a
        transfer between the two nodes (second term of Eq. 2).
        """
        total = 0.0
        if ref_a.is_island:
            total += self.cinv_entry(ref_a.index, ref_a.index)
        if ref_b.is_island:
            total += self.cinv_entry(ref_b.index, ref_b.index)
        if ref_a.is_island and ref_b.is_island:
            total -= 2.0 * self.cinv_entry(ref_a.index, ref_b.index)
        return total

    def free_energy_change(
        self,
        ref_a: NodeRef,
        ref_b: NodeRef,
        v_islands: np.ndarray,
        vext: np.ndarray,
        dq: float = -E_CHARGE,
    ) -> float:
        """Free-energy change ``dW`` for charge ``dq`` moving ``a -> b``.

        With ``dq = -e`` this is exactly Eq. 2 of the paper; ``dq = -2e``
        gives the Cooper-pair version used in the superconducting model.
        """
        phi_a = self.node_potential(ref_a, v_islands, vext)
        phi_b = self.node_potential(ref_b, v_islands, vext)
        return dq * (phi_b - phi_a) + 0.5 * dq * dq * self.charging_coefficient(
            ref_a, ref_b
        )

    def potential_update(
        self, ref_a: NodeRef, ref_b: NodeRef, dq: float = -E_CHARGE
    ) -> np.ndarray:
        """Island potential change caused by moving ``dq`` from ``a`` to ``b``.

        The state-independent identity ``dv = C^-1 dq_vec`` lets solvers
        update potentials incrementally instead of re-solving the full
        system after every tunnel event.  Only the endpoints' component
        spans are written; every other entry is zero.
        """
        dv = np.zeros(self._n)
        if ref_a.is_island:
            lo, hi = self._spans[ref_a.index]
            span = dv[lo:hi]  # updated in place through the view
            span -= dq * self._columns[ref_a.index]
        if ref_b.is_island:
            lo, hi = self._spans[ref_b.index]
            span = dv[lo:hi]
            span += dq * self._columns[ref_b.index]
        return dv

    def event_span(self, ref_a: NodeRef, ref_b: NodeRef) -> tuple[int, int]:
        """``(lo, hi)``: the islands :meth:`potential_update` may change
        for a tunnel event between the two nodes, ``(0, 0)`` when both
        are pinned.  An event's island endpoints share a component: its
        junction, or a cotunneling path's two junctions, couples them."""
        if ref_a.is_island:
            return self._spans[ref_a.index]
        if ref_b.is_island:
            return self._spans[ref_b.index]
        return 0, 0

    def source_potential_update(self, dvext: np.ndarray) -> np.ndarray:
        """Island potential change caused by a source-voltage change.

        ``dv = C^-1 C_x dV_ext`` — used when logic stimuli or sweep
        points retarget the sources without touching island charges.
        """
        rhs = self._cx @ dvext
        if self._dense:
            return self._cinv @ rhs
        return self._lu.solve(rhs)

    # ------------------------------------------------------------------
    # total energy (used by tests and the master-equation solver)
    # ------------------------------------------------------------------
    def total_free_energy(self, occupation: np.ndarray, vext: np.ndarray) -> float:
        """Island free energy of a charge configuration, up to a
        state-independent constant.

        For fixed source voltages this is ``F = 1/2 q'^T C^-1 q'`` with
        ``q' = q + C_x V_ext``.  For an event moving ``dq`` from node
        ``a`` to node ``b``, :meth:`free_energy_change` equals the change
        in this quantity **plus** the source work ``dq * V_lead`` for
        each endpoint that is a lead (charge delivered directly to a
        pinned node exchanges energy with its source).  The tests verify
        this bookkeeping identity exactly.
        """
        qeff = self.island_charges(occupation) + self._cx @ vext
        if self._dense:
            v = self._cinv @ qeff
        else:
            v = self._lu.solve(qeff)
        return 0.5 * float(qeff @ v)
