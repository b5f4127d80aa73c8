"""Discrete charge state of a circuit."""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.circuit.components import NodeRef
from repro.errors import CircuitError


def neutral_occupation(n_islands: int) -> np.ndarray:
    """All-zero occupation vector for ``n_islands`` islands.

    The canonical occupation dtype is ``int64``: every solver and the
    master-equation state space key on exact integer electron counts,
    so the dtype is pinned at the single point where occupation arrays
    are born.
    """
    return np.zeros(n_islands, dtype=np.int64)


@dataclasses.dataclass
class ChargeState:
    """Integer electron occupation of every island.

    ``occupation[i]`` is the number of *excess electrons* on island
    ``i``; island charge is ``q_i = -e * occupation[i] + q0_i``.
    Tunnel events change occupations by whole electrons (or by two for
    Cooper pairs); only the electrostatics deals in coulombs.
    """

    occupation: np.ndarray

    @classmethod
    def neutral(cls, n_islands: int) -> "ChargeState":
        """All-islands-neutral initial state."""
        return cls(neutral_occupation(n_islands))

    def copy(self) -> "ChargeState":
        return ChargeState(self.occupation.copy())

    def apply_transfer(
        self, ref_a: NodeRef, ref_b: NodeRef, n_electrons: int = 1
    ) -> None:
        """Move ``n_electrons`` from node ``a`` to node ``b`` in place.

        Lead endpoints are charge reservoirs and carry no state.
        """
        if n_electrons < 1:
            raise CircuitError(f"transfer must move >= 1 electron, got {n_electrons}")
        if ref_a.is_island:
            self.occupation[ref_a.index] -= n_electrons
        if ref_b.is_island:
            self.occupation[ref_b.index] += n_electrons

    def key(self) -> tuple[int, ...]:
        """Hashable snapshot, used by the master-equation state space."""
        return tuple(int(x) for x in self.occupation)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ChargeState):
            return NotImplemented
        return bool(np.array_equal(self.occupation, other.occupation))
