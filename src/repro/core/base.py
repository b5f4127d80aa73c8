"""Shared machinery of the adaptive and non-adaptive MC solvers."""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.circuit.circuit import Circuit
from repro.circuit.electrostatics import Electrostatics
from repro.circuit.junction_table import JunctionTable
from repro.constants import E_CHARGE
from repro.core.config import SimulationConfig
from repro.core.event_solver import choose_channel, choose_pair, draw_time
from repro.core.events import EventKind, TunnelEvent
from repro.errors import SimulationError
from repro.physics.rates import TunnelingModel


@dataclasses.dataclass
class SolverStats:
    """Work counters used by the performance benches (Fig. 6).

    ``sequential_rate_evaluations`` counts single-electron tunnel-rate
    computations — the quantity the adaptive algorithm exists to reduce;
    ``secondary_rate_evaluations`` counts cotunneling/Cooper-pair rate
    computations, which are always performed non-adaptively (Sec. III-B).
    These are the only per-event counts: the telemetry registry learns
    the number of events once per engine run.
    """

    events: int = 0
    sequential_rate_evaluations: int = 0
    secondary_rate_evaluations: int = 0
    potential_solves: int = 0
    full_refreshes: int = 0
    flagged_recalculations: int = 0

    def as_dict(self) -> dict:
        """The counters as a plain ``{name: value}`` dict."""
        return dataclasses.asdict(self)

    def merge(self, *others: "SolverStats") -> "SolverStats":
        """New :class:`SolverStats` summing these counters and
        ``others``'s — for aggregating runs (sweep rows, repeats)."""
        totals = self.as_dict()
        for other in others:
            for name, value in other.as_dict().items():
                totals[name] += value
        return SolverStats(**totals)

    def format_table(self, title: str = "solver stats") -> str:
        """Fixed-width two-column table of the counters."""
        counters = self.as_dict()
        width = max(len(name) for name in counters)
        lines = [title]
        lines += [
            f"  {name:{width}s}  {value:>14d}"
            for name, value in counters.items()
        ]
        return "\n".join(lines)


def event_record_prefix(
    kind: EventKind, junction: int, direction: int, n_electrons: int,
    src_is_island: bool, src_index: int, dst_is_island: bool, dst_index: int,
) -> str:
    """The event-stream digest's record of one event up to the residence
    time: the record is this prefix, ``dt.hex()`` and a newline.

    ``src``/``dst`` are the nodes the electrons leave and reach, an
    island flag and an island or source index each.
    """
    return (
        f"{kind.value}:{junction}:{direction}:{n_electrons}:"
        f"{src_is_island:d}{src_index}:{dst_is_island:d}{dst_index}:"
    )


#: the rates and energies of a channel kind that is off
_NO_CHANNELS = np.zeros(0)
_NO_CHANNELS.flags.writeable = False


class BaseSolver:
    """State and helpers common to both Monte Carlo solvers.

    Subclasses implement :meth:`step` (simulate one tunnel event) and
    :meth:`set_external_voltages` (react to stimulus changes), and may
    run :meth:`run_batch` faster than one :meth:`step` at a time.
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
        self.circuit = circuit
        self.stat = electrostatics
        self.table = junction_table
        self.model = model
        self.config = config
        self.rng = rng
        self.resolved = circuit.resolved_junctions()
        self.n_junctions = circuit.n_junctions

        if initial_occupation is None:
            self.occupation = np.zeros(circuit.n_islands, dtype=np.int64)
        else:
            occ = np.asarray(initial_occupation)
            if occ.shape != (circuit.n_islands,):
                raise SimulationError(
                    f"initial occupation must have shape ({circuit.n_islands},), "
                    f"got {occ.shape}"
                )
            self.occupation = occ.astype(np.int64).copy()
        self.vext = circuit.external_voltages()
        self.time = 0.0
        # Kahan compensation for the simulated clock: a sweep can dwell
        # ~1e5 simulated seconds in deep blockade and then resolve
        # ~1e-11 s steps at high bias — naive accumulation would round
        # those steps away and corrupt every windowed current estimate.
        self._time_compensation = 0.0
        # measurement stopwatch: after an astronomically long blockade
        # dwell the absolute clock cannot represent nanosecond windows
        # at all, so windowed estimates accumulate their own elapsed
        # time from zero
        self.window_elapsed = 0.0
        self._window_compensation = 0.0
        #: signed electron count through each junction (+ = node_a -> node_b)
        self.flux = np.zeros(self.n_junctions, dtype=np.int64)
        self.stats = SolverStats()
        # order-sensitive digest of the realised event stream — the
        # runtime determinism sanitizer's oracle (repro run --dsan)
        if config.event_hash:
            from repro.dsan.runtime import new_digest

            self._event_digest = new_digest()
        else:
            self._event_digest = None

    # ------------------------------------------------------------------
    # secondary (always non-adaptive) channels
    # ------------------------------------------------------------------
    def _secondary_rates(
        self, v: np.ndarray
    ) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """Rates of the Cooper-pair and cotunneling channels and the
        free-energy changes they were computed from.

        The rate vector holds the Cooper pairs forward on each junction,
        then backward, then one entry per cotunneling path; the energies
        are ``(cooper_forward, cooper_backward, path_total)``, empty
        where a channel kind is off.  :meth:`_secondary_event` builds the
        event of one index.
        """
        rates: list[np.ndarray] = []
        cp_fw = cp_bw = cot_dw = _NO_CHANNELS
        if self.model.include_cooper_pairs:
            cp_fw, cp_bw = self.table.free_energy_changes(
                v, self.vext, dq=-2.0 * E_CHARGE
            )
            rates.extend(self.model.cooper_pair_rates(cp_fw, cp_bw))
            self.stats.secondary_rate_evaluations += 2 * self.n_junctions
        if self.model.include_cotunneling and self.model.paths:
            cot = np.empty(len(self.model.paths))
            cot_dw = np.empty(len(self.model.paths))
            for k, path in enumerate(self.model.paths):
                dw_total = self.stat.free_energy_change(
                    path.ref_a, path.ref_b, v, self.vext
                )
                e1 = self.stat.free_energy_change(
                    path.ref_a, path.ref_m, v, self.vext
                )
                e2 = self.stat.free_energy_change(
                    path.ref_m, path.ref_b, v, self.vext
                )
                cot[k] = self.model.cotunneling_rate_for_path(path, dw_total, e1, e2)
                cot_dw[k] = dw_total
            rates.append(cot)
            self.stats.secondary_rate_evaluations += len(self.model.paths)
        energies = (cp_fw, cp_bw, cot_dw)
        if rates:
            return np.concatenate(rates), energies
        return _NO_CHANNELS, energies

    def _secondary_event(
        self, index: int, energies: tuple[np.ndarray, np.ndarray, np.ndarray]
    ) -> TunnelEvent:
        """The event of secondary channel ``index`` (see
        :meth:`_secondary_rates`)."""
        cp_fw, cp_bw, cot_dw = energies
        n = len(cp_fw)
        if index < n:
            return TunnelEvent(
                EventKind.COOPER_PAIR, index, +1, 2, float(cp_fw[index])
            )
        if index < 2 * n:
            j = index - n
            return TunnelEvent(EventKind.COOPER_PAIR, j, -1, 2, float(cp_bw[j]))
        k = index - 2 * n
        path = self.model.paths[k]
        return TunnelEvent(
            EventKind.COTUNNELING, path.junction_in, path.direction_in, 1,
            float(cot_dw[k]), path=path,
        )

    # ------------------------------------------------------------------
    # event realisation
    # ------------------------------------------------------------------
    def _select_and_apply(
        self,
        seq_fw: np.ndarray,
        seq_bw: np.ndarray,
        secondary_rates: np.ndarray,
        secondary_energies: tuple[np.ndarray, np.ndarray, np.ndarray],
        seq_dw_fw: np.ndarray,
        seq_dw_bw: np.ndarray,
        deadline: float | None = None,
    ) -> TunnelEvent | None:
        """Draw the residence time and the event, then mutate the state.

        Selection runs over junction *pairs* first (forward/backward
        resolved inside the chosen pair) and secondary channels after —
        the same ordering the adaptive solver's sampling tree uses, so
        the two solvers walk identical trajectories at a zero adaptive
        threshold.

        With a ``deadline`` (piecewise-constant AC drive), an event
        drawn beyond it is *discarded* and the clock advances to the
        deadline instead — valid because the exponential residence time
        is memoryless, and required because the rates change there.
        """
        pair = seq_fw + seq_bw
        pair_total = float(np.sum(pair))
        secondary_total = float(np.sum(secondary_rates)) if len(
            secondary_rates
        ) else 0.0
        total = pair_total + secondary_total
        if deadline is not None and total <= 0.0:
            # frozen under the current drive: nothing can happen until
            # the sources move again
            self._advance_time(deadline - self.time)
            return None
        dt = draw_time(total, self.rng)
        if deadline is not None and self.time + dt > deadline:
            self._advance_time(deadline - self.time)
            return None
        target = self.rng.random() * total

        if target < pair_total or not len(secondary_rates):
            j, forward = choose_pair(pair, seq_fw, target)
            if forward:
                event = TunnelEvent(
                    EventKind.SEQUENTIAL, j, +1, 1, float(seq_dw_fw[j])
                )
            else:
                event = TunnelEvent(
                    EventKind.SEQUENTIAL, j, -1, 1, float(seq_dw_bw[j])
                )
        else:
            index = choose_channel(secondary_rates, target - pair_total)
            event = self._secondary_event(index, secondary_energies)

        self._commit_event(event, dt)
        return event

    def _commit_event(self, event: TunnelEvent, dt: float) -> None:
        """Realise a drawn event: advance the clocks, count it, mutate
        the charge state and fold it into the event-stream digest.

        Every event-realising path (the shared selection above and the
        adaptive solver's fast tree draw) must commit through here so
        the determinism sanitizer's digest sees the full stream.
        """
        self._advance_time(dt)
        self.stats.events += 1
        self._apply_event(event)
        if self._event_digest is not None:
            self._hash_event(event, dt)

    def _hash_event(self, event: TunnelEvent, dt: float) -> None:
        """Fold one realised event into the stream digest.

        The record covers everything that defines the trajectory step:
        event kind, junction, direction, electron count, the two
        endpoint node refs (= the island occupation deltas) and the
        exact bits of the residence time.  ``float.hex`` keeps the
        encoding exact and platform-independent.
        """
        ref_a, ref_b = self._event_endpoints(event)
        prefix = event_record_prefix(
            event.kind, event.junction, event.direction, event.n_electrons,
            ref_a.is_island, ref_a.index, ref_b.is_island, ref_b.index,
        )
        self._event_digest.update(f"{prefix}{dt.hex()}\n".encode("ascii"))

    def event_stream_hash(self) -> str | None:
        """Hex digest of the event stream so far (``None`` when
        :attr:`SimulationConfig.event_hash` is off)."""
        if self._event_digest is None:
            return None
        return self._event_digest.hexdigest()

    def _advance_time(self, dt: float) -> None:
        """Kahan-compensated advance of both clocks."""
        y = dt - self._time_compensation
        t = self.time + y
        self._time_compensation = (t - self.time) - y
        self.time = t
        y = dt - self._window_compensation
        t = self.window_elapsed + y
        self._window_compensation = (t - self.window_elapsed) - y
        self.window_elapsed = t

    def reset_window(self) -> None:
        """Restart the measurement stopwatch."""
        self.window_elapsed = 0.0
        self._window_compensation = 0.0

    def _event_endpoints(self, event: TunnelEvent):
        """Source and destination node refs of the net charge transfer."""
        if event.kind is EventKind.COTUNNELING:
            assert event.path is not None
            return event.path.ref_a, event.path.ref_b
        rj = self.resolved[event.junction]
        if event.direction > 0:
            return rj.ref_a, rj.ref_b
        return rj.ref_b, rj.ref_a

    def _apply_event(self, event: TunnelEvent) -> None:
        """Update occupations and junction flux counters."""
        ref_a, ref_b = self._event_endpoints(event)
        if ref_a.is_island:
            self.occupation[ref_a.index] -= event.n_electrons
        if ref_b.is_island:
            self.occupation[ref_b.index] += event.n_electrons
        for junction, electrons in event.flux_contributions():
            self.flux[junction] += electrons

    # ------------------------------------------------------------------
    # interface for subclasses
    # ------------------------------------------------------------------
    def step(self, deadline: float | None = None) -> TunnelEvent | None:
        """Simulate one tunnel event (or advance to ``deadline``).

        Returns ``None`` when a deadline was given and the next event
        would have fallen beyond it — the clock then sits exactly at
        the deadline with no state change.
        """
        raise NotImplementedError

    def run_batch(self, max_events: int, stop_time: float | None = None) -> int:
        """Realise up to ``max_events`` events, stopping before a draw
        once ``time >= stop_time``; returns how many were realised.

        The engine runs its events in these batches.  This default is a
        loop of :meth:`step`; the adaptive solver's C kernel runs a
        batch in a few calls.
        """
        done = 0
        while done < max_events:
            if stop_time is not None and self.time >= stop_time:
                break
            self.step()
            done += 1
        return done

    def set_external_voltages(self, vext: np.ndarray) -> None:
        raise NotImplementedError

    def potentials(self) -> np.ndarray:
        """Current island potentials (exact)."""
        raise NotImplementedError

    def junction_current(self, junction: int, flux_start: int, time_start: float
                         ) -> float:
        """Mean conventional current (A) through ``junction`` since a
        reference point, positive in the ``node_a -> node_b`` direction.

        Electrons carry charge ``-e``, so the conventional current is
        minus the electron flux rate.
        """
        elapsed = self.time - time_start
        if elapsed <= 0.0:
            raise SimulationError("no simulated time elapsed for current estimate")
        return -E_CHARGE * float(self.flux[junction] - flux_start) / elapsed
