"""The adaptive Monte Carlo solver (Algorithm 1 — the paper's
contribution).

After a tunnel event only the junctions whose electrostatic environment
changed appreciably have their rates recomputed:

1. the potential change ``dv`` caused by the event is known in closed
   form (``C^-1`` columns), so island potentials stay *exact*;
2. starting from the junctions nearest the event, each tested junction
   ``i`` accumulates the potential change across it into a testing
   factor ``b(i) = b0(i) + dP_n1 - dP_n2``;
3. if ``e*|b(i)|`` exceeds ``lambda`` times the magnitude of either
   reference free-energy change stored when the junction's rate was
   last computed — additionally capped at ``lambda * cap * kT``, which
   bounds the *log-rate* staleness of thermally activated junctions
   (see :class:`~repro.core.config.SimulationConfig`) — the junction is
   flagged for recalculation and its neighbours are tested too
   (breadth-first), otherwise the accumulated factor is kept for next
   time.  The per-event walk compares ``|b(i)|`` with a limit
   ``(lambda/e) * min(...)`` stored when the rate was computed; the
   vectorised wide-front walk compares ``e*|b(i)|`` with
   ``lambda * min(...)``;
4. every ``full_refresh_interval`` events all rates are recomputed,
   bounding the cumulative error.

On every circuit without cotunneling the events run in a C kernel
(:mod:`repro.core.native`, ``fused_step.c``): one ``repro_run`` call
realises a batch of events, each with the draw, the selection (the tree
sample, or with Cooper pairs on the cumulative pair and Cooper-pair
rates), the occupation and flux update, the Kahan clocks, the potential
update, the test walk, the scalar recompute (orthodox rates, or each
junction's quasi-particle table lookup), the tree repair and the
event-stream digest record, with the same IEEE operations as the Python
methods below, over the same buffers.  A call stops at the engine's
event budget or stop time, or for the work Python does between events:
a full refresh, an orthodox batch wider than ``native.SCALAR_BATCH``
(computed by the kernel around one ``numpy.expm1`` call, the loop the
Python path's numpy recompute runs), a frozen draw, or a full record
buffer.  :meth:`AdaptiveSolver.step` is a run of one event.  The Python
methods are the reference and the fallback when the kernel cannot be
built; both realise the same events, bit for bit.

Secondary channels (cotunneling, Cooper pairs) are recomputed every
iteration from the exact potentials, exactly as the paper prescribes
("a non-adaptive solver is used to calculate the tunnel rate
information specific to these effects").
"""

from __future__ import annotations

import ctypes
import math

import numpy as np

from repro.circuit.circuit import Circuit
from repro.circuit.electrostatics import Electrostatics
from repro.circuit.junction_table import JunctionTable
from repro.constants import E_CHARGE, HBAR, K_B
from repro.core import native
from repro.core.base import BaseSolver
from repro.core.config import SimulationConfig
from repro.core.event_solver import draw_time
from repro.core.events import EventKind, TunnelEvent
from repro.core.pairtree import PairRateTree
from repro.physics.orthodox import orthodox_rates_both
from repro.physics.rates import TunnelingModel


def _extension_is_minus_one(table) -> bool:
    """Whether every ``expm1`` argument of ``table``'s ohmic extension,
    at most ``(grid[0] + Delta1 + Delta2) / kT``, lies at or below
    :data:`native.EXPM1_MINUS_ONE`.  A table at T = 0 calls no
    ``expm1``."""
    if table.temperature == 0.0:
        return True
    energy = float(table._grid[0]) + table.delta1 + table.delta2
    return energy / (K_B * table.temperature) <= native.EXPM1_MINUS_ONE


class AdaptiveSolver(BaseSolver):
    """Selective-update MC solver (the paper's Algorithm 1).

    ``step_path`` says which per-event step runs: ``native (<library>)``
    or ``python (<reason>)``.
    """

    def __init__(
        self,
        circuit: Circuit,
        electrostatics: Electrostatics,
        junction_table: JunctionTable,
        model: TunnelingModel,
        config: SimulationConfig,
        rng: np.random.Generator,
        initial_occupation: np.ndarray | None = None,
    ):
        super().__init__(
            circuit, electrostatics, junction_table, model, config, rng,
            initial_occupation,
        )
        self._neighbors = circuit.junction_neighbors()
        self._neighbor_arrays = [
            np.asarray(nbrs, dtype=np.intp) for nbrs in self._neighbors
        ]
        self._zero_ext = np.zeros(circuit.n_external)
        # retargets write the source voltages in place
        self.vext = np.array(self.vext, dtype=float)
        # plain-Python endpoint views for the scalar hot path (numpy
        # element access is several times slower than list access)
        self._a_isl_list = junction_table.a_is_island.tolist()
        self._a_idx_list = junction_table.a_index.tolist()
        self._b_isl_list = junction_table.b_is_island.tolist()
        self._b_idx_list = junction_table.b_index.tolist()
        self._resistance_list = junction_table.resistance.tolist()
        self._charging = 0.5 * E_CHARGE * E_CHARGE * junction_table.charging
        self._charging_list = self._charging.tolist()
        # O(log J) sampling tree, usable when the only channels are the
        # sequential pairs (secondary channels are recomputed globally
        # every iteration anyway, so they keep the plain path)
        self._fast = not (
            model.include_cooper_pairs or model.include_cotunneling
        )
        self._tree: PairRateTree | None = None
        # cap on the testing threshold (energy): bounds the log-rate
        # staleness of thermally activated junctions at lambda * cap
        self._energy_cap = (
            config.adaptive_thermal_cap * K_B * model.temperature
            if model.temperature > 0.0
            else float("inf")
        )
        self._a_is_island = junction_table.a_is_island
        self._a_index = junction_table.a_index
        self._b_is_island = junction_table.b_is_island
        self._b_index = junction_table.b_index
        # Algorithm 1's per-junction testing state: the testing factor
        # b0 and the test limit (lambda / e) * min(|dW_fw|, |dW_bw|,
        # cap), written wherever the junction's rate is written.  These
        # buffers, like the potentials, free energies, rates and tree
        # nodes, are allocated once and written in place: the C kernel
        # holds their addresses
        self._b0 = np.zeros(self.n_junctions)
        self._limit = np.zeros(self.n_junctions)
        self._events_since_refresh = 0
        self._v = np.zeros(circuit.n_islands)
        self._dw_fw = np.zeros(self.n_junctions)
        self._dw_bw = np.zeros(self.n_junctions)
        self._seq_fw = np.zeros(self.n_junctions)
        self._seq_bw = np.zeros(self.n_junctions)
        self._full_refresh()
        self._kernel = self._bind_kernel()

    def _bind_kernel(self) -> native.Kernel | None:
        """The C kernel's view of this solver's buffers, or ``None``
        when the Python path runs: cotunneling models, a quasi-particle
        table whose ohmic extension reaches ``expm1`` arguments above
        :data:`native.EXPM1_MINUS_ONE` (where libm's and numpy's results
        may differ), a neighbour list that makes a seed list longer than
        the scalar walk takes, or a kernel that could not be built.
        Sets :attr:`step_path` to say which."""
        model = self.model
        if model.include_cotunneling:
            self.step_path = "python (cotunneling model)"
            return None
        if not all(map(_extension_is_minus_one, model._qp_tables)):
            self.step_path = (
                "python (a quasi-particle table's ohmic extension reaches "
                f"expm1 arguments above {native.EXPM1_MINUS_ONE})"
            )
            return None
        if max(map(len, self._neighbors), default=0) + 1 > 256:
            self.step_path = "python (an event's seed list exceeds 256 junctions)"
            return None
        library = native.load()
        self.step_path = library.describe()
        if library.run is None:
            return None
        n = self.n_junctions
        int64 = np.int64
        neighbor_start = np.zeros(n + 1, dtype=int64)
        np.cumsum([len(nbrs) for nbrs in self._neighbors], out=neighbor_start[1:])
        layout = self.stat.cinv_layout
        self._flagged = np.zeros(n, dtype=int64)
        # a wide batch's packed expm1 arguments and results: at most two
        # per flagged junction
        self._xbuf = np.zeros(2 * n)
        self._ebuf = np.zeros(2 * n)
        buffers = {
            "a_isl": self._a_is_island.astype(int64),
            "a_idx": self._a_index.astype(int64),
            "b_isl": self._b_is_island.astype(int64),
            "b_idx": self._b_index.astype(int64),
            "nbr_start": neighbor_start,
            "nbr_list": np.array(
                [j for nbrs in self._neighbors for j in nbrs], dtype=int64
            ),
            "charging": self._charging,
            "resistance": np.ascontiguousarray(self.table.resistance, dtype=float),
            "cinv": layout.values,
            "cinv_offset": layout.offset,
            "span_lo": layout.lo,
            "span_hi": layout.hi,
            "v": self._v,
            "vext": self.vext,
            "dw_fw": self._dw_fw,
            "dw_bw": self._dw_bw,
            "seq_fw": self._seq_fw,
            "seq_bw": self._seq_bw,
            "b0": self._b0,
            "limit": self._limit,
            "occupation": self.occupation,
            "flux": self.flux,
            "dv": np.zeros(self.stat.n_islands),
            "queue": np.zeros(n, dtype=int64),
            "queued": np.zeros(n, dtype=np.uint8),
            "flagged": self._flagged,
            "xbuf": self._xbuf,
            "ebuf": self._ebuf,
        }
        if self._tree is not None:
            buffers["tree"] = self._tree.nodes
        if model.superconducting:
            # the kernel reads each junction's table in place
            tables = model._qp_tables
            buffers["qp_grid"] = np.array(
                [table._grid.ctypes.data for table in tables], dtype=np.uintp
            )
            buffers["qp_rates"] = np.array(
                [table._rates.ctypes.data for table in tables], dtype=np.uintp
            )
            buffers["qp_points"] = np.array(
                [len(table._grid) for table in tables], dtype=int64
            )
            buffers["qp_params"] = np.array([
                (table._extension_scale, table.delta1, table.delta2,
                 table.resistance)
                for table in tables
            ])
        cooper = {}
        if model.include_cooper_pairs:
            # JunctionTable.free_energy_changes's self-energy of a 2e
            # transfer and TunnelingModel.cooper_pair_rates's factors
            dq = -2.0 * E_CHARGE
            linewidth = model.cooper_linewidth
            buffers["cp_charging"] = 0.5 * dq * dq * self.table.charging
            buffers["ej2"] = model.josephson * model.josephson
            scratch = np.zeros(7 * n)
            buffers["pair"] = scratch[:n]
            buffers["cp_dw"] = scratch[n:3 * n]
            buffers["cp_rate"] = scratch[3 * n:5 * n]
            buffers["cumulative"] = scratch[5 * n:]
            cooper = dict(
                cooper=1,
                cp_scale=1.0 * 1.0 / (2.0 * HBAR) * linewidth,
                cp_quarter=0.25 * linewidth * linewidth,
            )
        if self._event_digest is not None:
            self._records = np.zeros(native.RECORD_BYTES, dtype=np.uint8)
            buffers["records"] = self._records
        kernel = native.Kernel(
            rng=self.rng.bit_generator.ctypes.bit_generator.value,
            n_junctions=n,
            tree_size=0 if self._tree is None else self._tree._size,
            cinv_row=layout.row,
            kt=K_B * self.model.temperature,
            charge=E_CHARGE,
            scale=self.config.adaptive_threshold / E_CHARGE,
            cap=self._energy_cap,
            dq=-E_CHARGE,
            # a superconducting batch of any width is computed in C
            scalar_batch=n if model.superconducting else native.SCALAR_BATCH,
            refresh_interval=self.config.full_refresh_interval,
            record_capacity=native.RECORD_BYTES,
            **cooper,
        )
        pointer_types = dict(native.Kernel._fields_)
        for name, array in buffers.items():
            setattr(kernel, name, array.ctypes.data_as(pointer_types[name]))
        # the struct holds raw addresses: keep the arrays alive with it
        self._kernel_buffers = buffers
        self._native_run = library.run
        self._native_prepare = library.prepare
        self._native_finish = library.finish
        self._kernel_address = ctypes.addressof(kernel)
        return kernel

    @property
    def rng(self) -> np.random.Generator:
        """The solver's random stream (the kernel draws from it too)."""
        return self._rng

    @rng.setter
    def rng(self, rng: np.random.Generator) -> None:
        self._rng = rng
        kernel = getattr(self, "_kernel", None)
        if kernel is not None:
            kernel.rng = rng.bit_generator.ctypes.bit_generator.value

    # ------------------------------------------------------------------
    # cache maintenance
    # ------------------------------------------------------------------
    def _full_refresh(self) -> None:
        """Recompute potentials, free energies and all sequential rates."""
        self._v[:] = self.stat.potentials(self.occupation, self.vext)
        self.stats.potential_solves += 1
        self._dw_fw[:], self._dw_bw[:] = self.table.free_energy_changes(
            self._v, self.vext
        )
        self._seq_fw[:], self._seq_bw[:] = self.model.sequential_rates(
            self._dw_fw, self._dw_bw
        )
        self.stats.sequential_rate_evaluations += 2 * self.n_junctions
        self.stats.full_refreshes += 1
        self._b0.fill(0.0)
        self._limit[:] = self._limits(self._dw_fw, self._dw_bw)
        self._events_since_refresh = 0
        if self._fast:
            if self._tree is None:
                self._tree = PairRateTree(self._seq_fw, self._seq_bw)
            else:
                self._tree.rebuild(self._seq_fw, self._seq_bw)

    def _limits(self, dw_fw: np.ndarray, dw_bw: np.ndarray) -> np.ndarray:
        """Test limits ``(lambda / e) * min(|dW_fw|, |dW_bw|, cap)`` for
        a full refresh; the same IEEE operations as the recomputes'
        scalar ``scale * min(abs(dwf), abs(dwb), cap)``, so both give
        the same bits."""
        scale = self.config.adaptive_threshold / E_CHARGE
        smaller = np.minimum(
            np.minimum(np.abs(dw_fw), np.abs(dw_bw)), self._energy_cap
        )
        return scale * smaller

    def _recompute_junctions(self, indices) -> None:
        """Recompute free energies and rates for flagged junctions only:
        a superconducting model's batch of any width and an orthodox
        list of at most :data:`native.SCALAR_BATCH` on Python floats
        (orthodox rates with libm's ``expm1``), a wider orthodox list or
        an array with numpy's."""
        if self.model.superconducting:
            self._recompute_scalar(
                indices if isinstance(indices, list) else indices.tolist()
            )
            return
        if isinstance(indices, list) and len(indices) <= native.SCALAR_BATCH:
            self._recompute_scalar(indices)
            return
        idx = np.asarray(indices, dtype=np.intp)
        if idx.size == 0:
            return
        if self._kernel is not None:
            self._flagged[: idx.size] = idx
            self._recompute_wide(idx.size)
            return
        dw_fw, dw_bw = self._recompute_rates(idx)
        self.stats.sequential_rate_evaluations += 2 * idx.size
        self.stats.flagged_recalculations += idx.size
        self._b0[idx] = 0.0
        self._limit[idx] = self._limits(dw_fw, dw_bw)
        if self._tree is not None:
            self._tree.update(
                idx.tolist(), (self._seq_fw[idx] + self._seq_bw[idx]).tolist()
            )

    def _recompute_wide(self, n: int) -> None:
        """The kernel's recompute of its ``flagged[:n]`` with numpy's
        ``expm1``: ``repro_prepare`` writes the free energies and packs
        the arguments, one numpy call (the loop ``bose_weight`` runs)
        evaluates them, and ``repro_finish`` forms the rates as
        :meth:`_recompute_rates` does, stores the limits and repairs
        the tree."""
        self._kernel.n_flagged = n
        count = self._native_prepare(self._kernel_address)
        if count:
            np.expm1(self._xbuf[:count], out=self._ebuf[:count])
        self._native_finish(self._kernel_address)
        self.stats.sequential_rate_evaluations += 2 * n
        self.stats.flagged_recalculations += n

    def _recompute_rates(self, idx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Write the free energies and orthodox rates of junctions
        ``idx`` with numpy; returns the free energies."""
        phi_a = np.where(
            self._a_is_island[idx],
            self._v[np.minimum(self._a_index[idx], len(self._v) - 1)],
            self.vext[np.minimum(self._a_index[idx], len(self.vext) - 1)],
        )
        phi_b = np.where(
            self._b_is_island[idx],
            self._v[np.minimum(self._b_index[idx], len(self._v) - 1)],
            self.vext[np.minimum(self._b_index[idx], len(self.vext) - 1)],
        )
        drop = phi_b - phi_a
        self_energy = 0.5 * E_CHARGE * E_CHARGE * self.table.charging[idx]
        dw_fw = -E_CHARGE * drop + self_energy
        dw_bw = +E_CHARGE * drop + self_energy
        self._dw_fw[idx] = dw_fw
        self._dw_bw[idx] = dw_bw
        fw, bw = orthodox_rates_both(
            dw_fw, dw_bw, self.table.resistance[idx], self.model.temperature
        )
        self._seq_fw[idx] = fw
        self._seq_bw[idx] = bw
        return dw_fw, dw_bw

    def _recompute_scalar(self, indices: list) -> None:
        """Scalar-math recompute for the few junctions a tunnel event
        flags; avoids numpy's small-array overhead in the hot path and
        repairs the sampling tree once for the whole batch.  A
        superconducting model gives each rate from its scalar table
        lookup."""
        superconducting = self.model.superconducting
        rate = self.model.sequential_rate_single
        kt = K_B * self.model.temperature
        e = E_CHARGE
        scale = self.config.adaptive_threshold / e
        cap = self._energy_cap
        v = self._v.item
        vext = self.vext.item
        a_isl, a_idx = self._a_isl_list, self._a_idx_list
        b_isl, b_idx = self._b_isl_list, self._b_idx_list
        charging = self._charging_list
        resistance = self._resistance_list
        fw_arr, bw_arr = self._seq_fw, self._seq_bw
        dwf_arr, dwb_arr = self._dw_fw, self._dw_bw
        # memoryviews index to plain floats, several times faster than
        # numpy element access
        b0, limit = memoryview(self._b0), memoryview(self._limit)
        pair_rates = []
        e2 = e * e

        for i in indices:
            phi_a = v(a_idx[i]) if a_isl[i] else vext(a_idx[i])
            phi_b = v(b_idx[i]) if b_isl[i] else vext(b_idx[i])
            drop = phi_b - phi_a
            self_energy = charging[i]
            dwf = -e * drop + self_energy
            dwb = +e * drop + self_energy
            denominator = e2 * resistance[i]
            if superconducting:
                fw = rate(i, dwf)
                bw = rate(i, dwb)
            elif kt > 0.0:
                x = dwf / kt
                if x > 500.0:
                    fw = 0.0
                elif -1e-12 < x < 1e-12:
                    fw = kt / denominator
                else:
                    fw = dwf / math.expm1(x) / denominator
                x = dwb / kt
                if x > 500.0:
                    bw = 0.0
                elif -1e-12 < x < 1e-12:
                    bw = kt / denominator
                else:
                    bw = dwb / math.expm1(x) / denominator
            else:
                fw = -dwf / denominator if dwf < 0.0 else 0.0
                bw = -dwb / denominator if dwb < 0.0 else 0.0
            dwf_arr[i] = dwf
            dwb_arr[i] = dwb
            fw_arr[i] = fw
            bw_arr[i] = bw
            b0[i] = 0.0
            limit[i] = scale * min(abs(dwf), abs(dwb), cap)
            pair_rates.append(fw + bw)
        if self._tree is not None:
            self._tree.update(indices, pair_rates)
        self.stats.sequential_rate_evaluations += 2 * len(indices)
        self.stats.flagged_recalculations += len(indices)

    def _frontier_potential_change(
        self, frontier: np.ndarray, dv: np.ndarray, dvext: np.ndarray
    ) -> np.ndarray:
        """Change of ``phi_b - phi_a`` across each frontier junction."""
        b_isl = self._b_is_island[frontier]
        a_isl = self._a_is_island[frontier]
        b_idx = self._b_index[frontier]
        a_idx = self._a_index[frontier]
        change = np.where(
            b_isl, dv[np.minimum(b_idx, len(dv) - 1)],
            dvext[np.minimum(b_idx, len(dvext) - 1)],
        )
        change -= np.where(
            a_isl, dv[np.minimum(a_idx, len(dv) - 1)],
            dvext[np.minimum(a_idx, len(dvext) - 1)],
        )
        return change

    def _adaptive_update(
        self, dv: np.ndarray, dvext: np.ndarray | None, seeds
    ) -> None:
        """Algorithm 1: test, flag, and selectively recompute.

        The per-event walk touches a few dozen junctions; a tightly
        bound scalar loop on Python floats beats vectorisation at that
        size.  Large seed sets (stimulus changes test every junction)
        take the vectorised frontier path instead.
        """
        if len(seeds) > 256:
            self._adaptive_update_vector(dv, dvext, seeds)
            return
        b0, limit = memoryview(self._b0), memoryview(self._limit)
        a_isl, a_idx = self._a_isl_list, self._a_idx_list
        b_isl, b_idx = self._b_isl_list, self._b_idx_list
        neighbors = self._neighbors
        dv_item = dv.item
        ext = None if dvext is None else dvext.item
        visited: set[int] = set()
        flagged: list[int] = []
        # iterating a list while extending it walks the appended
        # entries too: a breadth-first queue without head bookkeeping
        queue = list(seeds)
        for i in queue:
            if i in visited:
                continue
            visited.add(i)
            change = 0.0
            if b_isl[i]:
                change += dv_item(b_idx[i])
            elif ext is not None:
                change += ext(b_idx[i])
            if a_isl[i]:
                change -= dv_item(a_idx[i])
            elif ext is not None:
                change -= ext(a_idx[i])
            b = b0[i] + change
            if abs(b) >= limit[i]:
                flagged.append(i)
                queue.extend(neighbors[i])
            else:
                b0[i] = b
        if flagged:
            self._recompute_junctions(flagged)

    def _adaptive_update_vector(
        self, dv: np.ndarray, dvext: np.ndarray | None, seeds
    ) -> None:
        """Vectorised variant for wide fronts (source/stimulus changes)."""
        lam = self.config.adaptive_threshold
        if dvext is None:
            dvext = self._zero_ext
        visited = np.zeros(self.n_junctions, dtype=bool)
        b0 = self._b0
        flagged_parts: list[np.ndarray] = []
        frontier = np.unique(np.asarray(seeds, dtype=np.intp))
        while frontier.size:
            frontier = frontier[~visited[frontier]]
            if not frontier.size:
                break
            visited[frontier] = True
            b = b0[frontier] + self._frontier_potential_change(
                frontier, dv, dvext
            )
            threshold = lam * np.minimum(
                np.minimum(
                    np.abs(self._dw_fw[frontier]),
                    np.abs(self._dw_bw[frontier]),
                ),
                self._energy_cap,
            )
            flag_mask = E_CHARGE * np.abs(b) >= threshold
            flagged = frontier[flag_mask]
            kept = frontier[~flag_mask]
            b0[kept] = b[~flag_mask]
            if flagged.size:
                flagged_parts.append(flagged)
                frontier = np.unique(
                    np.concatenate(
                        [self._neighbor_arrays[j] for j in flagged]
                    )
                )
            else:
                break
        if flagged_parts:
            self._recompute_junctions(np.concatenate(flagged_parts))

    # ------------------------------------------------------------------
    # solver interface
    # ------------------------------------------------------------------
    def step(self, deadline: float | None = None) -> TunnelEvent | None:
        kernel = self._kernel
        if kernel is not None:
            if not self._run_native(1, None, deadline):
                return None
            electrons = kernel.n_electrons
            return TunnelEvent(
                EventKind.COOPER_PAIR if electrons == 2 else EventKind.SEQUENTIAL,
                kernel.junction, 1 if kernel.forward else -1, electrons,
                kernel.dw,
            )
        if self._fast:
            event = self._select_fast(deadline)
        else:
            secondary_rates, energies = self._secondary_rates(self._v)
            event = self._select_and_apply(
                self._seq_fw, self._seq_bw, secondary_rates, energies,
                self._dw_fw, self._dw_bw, deadline=deadline,
            )
        if event is None:
            return None
        ref_a, ref_b = self._event_endpoints(event)
        dq = -E_CHARGE * event.n_electrons
        dv = self.stat.potential_update(ref_a, ref_b, dq)
        # dv is zero outside the event's component: leave v alone there,
        # as the kernel does (updated in place through the view)
        lo, hi = self.stat.event_span(ref_a, ref_b)
        span = self._v[lo:hi]
        span += dv[lo:hi]

        self._events_since_refresh += 1
        if self._events_since_refresh >= self.config.full_refresh_interval:
            self._full_refresh()
            return event

        seeds = self._event_seeds(event)
        self._adaptive_update(dv, None, seeds)
        return event

    def run_batch(self, max_events: int, stop_time: float | None = None) -> int:
        kernel = self._kernel
        if kernel is None:
            return super().run_batch(max_events, stop_time)
        done = 0
        while True:
            done += self._run_native(max_events - done, stop_time, None)
            if kernel.status in (native.STEP_BUDGET, native.STEP_TIME):
                return done

    def _run_native(
        self, max_events: int, stop_time: float | None, deadline: float | None
    ) -> int:
        """One ``repro_run`` call: realise at most ``max_events`` events,
        stopping before a draw once ``time >= stop_time`` and discarding
        a draw beyond ``deadline`` (see :meth:`BaseSolver.step`), then do
        the work the call stopped for.  The clocks go in and out of the
        kernel; the counters and the digest records it wrote go into
        :attr:`stats` and the digest.  Returns the events realised."""
        kernel = self._kernel
        kernel.time = self.time
        kernel.time_comp = self._time_compensation
        kernel.window = self.window_elapsed
        kernel.window_comp = self._window_compensation
        kernel.since_refresh = self._events_since_refresh
        done = self._native_run(
            self._kernel_address, max_events,
            0.0 if stop_time is None else stop_time, stop_time is not None,
            0.0 if deadline is None else deadline, deadline is not None,
        )
        self.time = kernel.time
        self._time_compensation = kernel.time_comp
        self.window_elapsed = kernel.window
        self._window_compensation = kernel.window_comp
        self._events_since_refresh = kernel.since_refresh
        stats = self.stats
        stats.events += done
        flagged = kernel.flagged_total
        stats.sequential_rate_evaluations += 2 * flagged
        stats.flagged_recalculations += flagged
        if self._event_digest is not None:
            self._event_digest.update(self._records[: kernel.record_len])
        status = kernel.status
        if kernel.cooper:
            # every draw formed the Cooper-pair rates, a frozen or
            # discarded one too
            draws = done + (status in (native.STEP_FROZEN, native.STEP_DEADLINE))
            stats.secondary_rate_evaluations += 2 * self.n_junctions * draws
        if status == native.STEP_REFRESH:
            self._full_refresh()
        elif status == native.STEP_RECOMPUTE:
            self._recompute_wide(kernel.n_flagged)
        elif status == native.STEP_DEADLINE:
            self._advance_time(deadline - self.time)
        elif status == native.STEP_FROZEN:
            self._frozen_draw(deadline)
        return done

    def _frozen_draw(self, deadline: float | None) -> None:
        """What a Python draw does at a total rate of zero, which the
        kernel leaves to its caller: raise ``FrozenCircuitError``, or
        advance the clocks to ``deadline``, without touching the random
        stream."""
        if deadline is None:
            draw_time(0.0, self.rng)
        self._advance_time(deadline - self.time)

    def _select_fast(self, deadline: float | None = None) -> TunnelEvent | None:
        """Sequential-only event draw through the O(log J) pair tree."""
        tree = self._tree
        total = tree.total
        if deadline is not None and total <= 0.0:
            self._advance_time(deadline - self.time)
            return None
        dt = draw_time(total, self.rng)
        if deadline is not None and self.time + dt > deadline:
            self._advance_time(deadline - self.time)
            return None
        target = self.rng.random() * total
        j, residual = tree.sample(target)
        if residual < self._seq_fw[j]:
            event = TunnelEvent(
                EventKind.SEQUENTIAL, j, +1, 1, float(self._dw_fw[j])
            )
        else:
            event = TunnelEvent(
                EventKind.SEQUENTIAL, j, -1, 1, float(self._dw_bw[j])
            )
        self._commit_event(event, dt)
        return event

    def _event_seeds(self, event: TunnelEvent) -> list[int]:
        """Junctions nearest the tunnel event: the event junction(s)
        themselves plus their immediate neighbours (Fig. 4)."""
        if event.path is not None:
            starts = [event.path.junction_in, event.path.junction_out]
        else:
            starts = [event.junction]
        seeds = list(starts)
        for j in starts:
            seeds.extend(self._neighbors[j])
        return seeds

    def set_external_voltages(self, vext: np.ndarray) -> None:
        """React to a stimulus/sweep change of the source voltages.

        The island potential response is exact (``dv = C^-1 C_x dV``).
        Every junction is *tested* against its accumulated threshold —
        an input can perturb junctions it only touches capacitively
        (logic inputs drive gate capacitors, not junctions), so seeding
        from junction-connected nodes alone would leave stale rates
        behind.  Testing is the cheap part of Algorithm 1; only the
        junctions that fail the test are recomputed.
        """
        vext = np.asarray(vext, dtype=float)
        dvext = vext - self.vext
        if not np.any(dvext):
            return
        dv = self.stat.source_potential_update(dvext)
        self._v += dv
        self.vext[:] = vext
        self._adaptive_update(dv, dvext, list(range(self.n_junctions)))

    def potentials(self) -> np.ndarray:
        return self._v
