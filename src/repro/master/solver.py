"""Steady-state master-equation (ME) solver.

The paper lists the master equation as one of the three established
simulation approaches (Sec. I): solve for the occupation probability of
every relevant charge state instead of sampling trajectories.  Its
weakness — the state space must be known in advance and explodes for
large circuits — is why SEMSIM is Monte Carlo based; its strength is
that for small devices it is *exact*, which makes it the perfect
reference for validating the MC solvers (this repo's substitute for
the paper's experimental data) and a fast evaluator for the Fig. 5
current map.

States are discovered by breadth-first exploration from the initial
charge configuration, following transitions whose rate is a meaningful
fraction of the local escape rate; the steady state solves
``pi Q = 0`` with normalisation.
"""

from __future__ import annotations

import dataclasses
from collections import deque

import numpy as np

from repro.circuit.circuit import Circuit
from repro.constants import E_CHARGE
from repro.errors import SimulationError
from repro.master.transitions import Transition, enumerate_transitions
from repro.physics.rates import TunnelingModel


@dataclasses.dataclass
class MasterEquationResult:
    """Steady-state solution over the explored state space."""

    states: list[tuple[int, ...]]
    probabilities: np.ndarray
    #: mean conventional current per junction (A), node_a -> node_b positive
    junction_currents: np.ndarray


class MasterEquationSolver:
    """Exact steady-state solver for small single-electron circuits.

    Parameters
    ----------
    circuit:
        The circuit (the state space grows exponentially with islands;
        intended for devices, not the logic benchmarks).
    temperature, include_cotunneling, include_cooper_pairs, ...:
        Physics options, identical in meaning to
        :class:`repro.core.SimulationConfig`.
    max_states:
        Hard cap on explored states.
    relative_rate_cutoff:
        A transition is followed during exploration when its rate
        exceeds this fraction of the largest rate leaving its state;
        this keeps the space finite while capturing everything that
        matters for the steady state.
    occupation_bound:
        Safety bound on ``|n_i|`` per island during exploration.
    """

    def __init__(
        self,
        circuit: Circuit,
        temperature: float,
        include_cotunneling: bool = False,
        include_cooper_pairs: bool | None = None,
        cooper_linewidth: float | None = None,
        cotunneling_energy_floor: float | None = None,
        max_states: int = 4000,
        relative_rate_cutoff: float = 1e-9,
        occupation_bound: int = 12,
    ):
        self.circuit = circuit
        self.stat, self.table = circuit.prepared_electrostatics()
        self.model = TunnelingModel(
            circuit,
            self.stat,
            self.table,
            temperature=temperature,
            include_cotunneling=include_cotunneling,
            include_cooper_pairs=include_cooper_pairs,
            cooper_linewidth=cooper_linewidth,
            cotunneling_energy_floor=cotunneling_energy_floor,
        )
        self.max_states = max_states
        self.relative_rate_cutoff = relative_rate_cutoff
        self.occupation_bound = occupation_bound

    # ------------------------------------------------------------------
    def explore(
        self,
        vext: np.ndarray | None = None,
        initial_occupation: np.ndarray | None = None,
    ) -> tuple[list[tuple[int, ...]], list[list[tuple[int, Transition]]]]:
        """Discover the reachable state space.

        Returns the state list and, per state, the outgoing
        ``(target_state_index, transition)`` pairs.
        """
        if vext is None:
            vext = self.circuit.external_voltages()
        if initial_occupation is None:
            initial = np.zeros(self.circuit.n_islands, dtype=np.int64)
        else:
            initial = np.asarray(initial_occupation, dtype=np.int64)

        key0 = tuple(int(x) for x in initial)
        index_of: dict[tuple[int, ...], int] = {key0: 0}
        states: list[tuple[int, ...]] = [key0]
        edges: list[list[tuple[int, Transition]]] = []
        queue: deque[int] = deque([0])

        while queue:
            s = queue.popleft()
            while len(edges) <= s:
                edges.append([])
            occupation = np.array(states[s], dtype=np.int64)
            transitions = enumerate_transitions(
                self.stat, self.table, self.model, occupation, vext
            )
            max_rate = max((t.rate for t in transitions), default=0.0)
            cutoff = max_rate * self.relative_rate_cutoff
            for transition in transitions:
                if transition.rate < cutoff:
                    continue
                new = transition.apply(occupation)
                if np.any(np.abs(new) > self.occupation_bound):
                    continue
                key = tuple(int(x) for x in new)
                target = index_of.get(key)
                if target is None:
                    if len(states) >= self.max_states:
                        continue
                    target = len(states)
                    index_of[key] = target
                    states.append(key)
                    queue.append(target)
                edges[s].append((target, transition))
        while len(edges) < len(states):
            edges.append([])
        return states, edges

    # ------------------------------------------------------------------
    def steady_state(
        self,
        vext: np.ndarray | None = None,
        initial_occupation: np.ndarray | None = None,
    ) -> MasterEquationResult:
        """Solve ``pi Q = 0`` on the explored space and fold out currents."""
        states, edges = self.explore(vext, initial_occupation)
        n = len(states)
        if n == 1:
            probabilities = np.ones(1)
        else:
            q = np.zeros((n, n))
            for s, outgoing in enumerate(edges):
                for target, transition in outgoing:
                    if target == s:
                        continue
                    q[s, target] += transition.rate
                    q[s, s] -= transition.rate
            # pi Q = 0 with sum(pi) = 1: replace the last column by ones.
            a = q.T.copy()
            a[-1, :] = 1.0
            rhs = np.zeros(n)
            rhs[-1] = 1.0
            try:
                probabilities = np.linalg.solve(a, rhs)
            except np.linalg.LinAlgError:
                # Disconnected or nearly reducible chains make the system
                # singular; the minimum-norm least-squares solution still
                # recovers a valid stationary distribution on the
                # recurrent class reachable from the initial state.
                probabilities, *_ = np.linalg.lstsq(a, rhs, rcond=None)
            probabilities = np.clip(probabilities, 0.0, None)
            total = probabilities.sum()
            if total <= 0.0:
                raise SimulationError("steady-state probabilities degenerate")
            probabilities /= total

        currents = np.zeros(self.circuit.n_junctions)
        for s, outgoing in enumerate(edges):
            for _, transition in outgoing:
                for junction, electrons in transition.flux:
                    currents[junction] += (
                        probabilities[s] * transition.rate * electrons
                    )
        currents *= -E_CHARGE
        return MasterEquationResult(states, probabilities, currents)

    # ------------------------------------------------------------------
    def current(
        self,
        junction: int,
        vext: np.ndarray | None = None,
        orientation: int = 1,
    ) -> float:
        """Steady-state current through one junction (A)."""
        result = self.steady_state(vext)
        return orientation * float(result.junction_currents[junction])

    # ------------------------------------------------------------------
    def transient(
        self,
        times: np.ndarray,
        vext: np.ndarray | None = None,
        initial_occupation: np.ndarray | None = None,
    ) -> "TransientResult":
        """Exact time evolution ``p(t) = p(0) expm(Q t)``.

        Valid for small state spaces (the generator is exponentiated
        densely); used to validate the Monte Carlo relaxation dynamics
        — the MC trajectory ensemble must reproduce these occupation
        probabilities at every time point.
        """
        from scipy.linalg import expm

        times = np.asarray(times, dtype=float)
        if np.any(times < 0.0):
            raise SimulationError("transient times must be >= 0")
        states, edges = self.explore(vext, initial_occupation)
        n = len(states)
        generator = np.zeros((n, n))
        for s, outgoing in enumerate(edges):
            for target, transition in outgoing:
                if target == s:
                    continue
                generator[s, target] += transition.rate
                generator[s, s] -= transition.rate
        p0 = np.zeros(n)
        p0[0] = 1.0
        probabilities = np.empty((len(times), n))
        for i, t in enumerate(times):
            probabilities[i] = p0 @ expm(generator * t)
        probabilities = np.clip(probabilities, 0.0, None)
        probabilities /= probabilities.sum(axis=1, keepdims=True)
        return TransientResult(states, times, probabilities)


@dataclasses.dataclass
class TransientResult:
    """Occupation probabilities over time for the explored states."""

    states: list[tuple[int, ...]]
    times: np.ndarray
    #: shape (len(times), len(states))
    probabilities: np.ndarray

    def probability_of(self, state: tuple[int, ...]) -> np.ndarray:
        """Probability trace of one charge state."""
        try:
            index = self.states.index(state)
        except ValueError:
            raise SimulationError(f"state {state} not in the explored space")
        return self.probabilities[:, index]

    def mean_occupation(self, island: int) -> np.ndarray:
        """Expected electron count on ``island`` versus time."""
        values = np.array([state[island] for state in self.states], dtype=float)
        return self.probabilities @ values
