"""N-replica ensemble Monte Carlo runs with merged statistics.

A single MC sweep is one noisy realisation; the SIMON-style ensemble
methodology repeats the experiment N times with independent seeds and
averages.  Each replica is a shard: its seed is spawned from the root
config seed by replica index, so the ensemble is bit-reproducible for
any worker count, and replica r of an N-replica run is always the same
simulation.
"""

from __future__ import annotations

import dataclasses
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Sequence

import numpy as np

from repro.errors import SimulationError
from repro.parallel.seeds import spawn_seeds
from repro.recovery.policy import ExecutionPolicy

if TYPE_CHECKING:  # deferred: repro.core.sweep imports repro.parallel
    from repro.campaign.store import CampaignStore
    from repro.circuit.circuit import Circuit
    from repro.core.base import SolverStats
    from repro.core.config import SimulationConfig
    from repro.core.sweep import IVCurve


@dataclasses.dataclass
class EnsembleIV:
    """Stacked I-V replicas plus their merged solver work."""

    voltages: np.ndarray
    #: shape (replicas, len(voltages))
    replica_currents: np.ndarray
    label: str = ""
    stats: "SolverStats | None" = dataclasses.field(
        default=None, compare=False, repr=False
    )
    #: order-sensitive fold of the per-replica event-stream digests
    #: (``None`` unless the ensemble ran with ``event_hash=True``)
    event_hash: str | None = dataclasses.field(
        default=None, compare=False, repr=False
    )

    @property
    def replicas(self) -> int:
        return int(self.replica_currents.shape[0])

    @property
    def mean_currents(self) -> np.ndarray:
        return self.replica_currents.mean(axis=0)

    @property
    def std_currents(self) -> np.ndarray:
        """Per-point standard error of the ensemble mean."""
        n = max(self.replicas, 1)
        return self.replica_currents.std(axis=0, ddof=1 if n > 1 else 0) / np.sqrt(n)

    def mean_curve(self) -> "IVCurve":
        """The ensemble-averaged curve as a plain :class:`IVCurve`."""
        from repro.core.sweep import IVCurve

        return IVCurve(
            self.voltages, self.mean_currents, self.label,
            stats=self.stats, event_hash=self.event_hash,
        )


@dataclasses.dataclass
class _Replica:
    """One ensemble member: a full serial I-V sweep with its own seed."""

    index: int
    circuit: "Circuit"
    config: "SimulationConfig"
    voltages: np.ndarray
    jumps_per_point: int
    junctions: list[int]
    orientations: list[int] | None
    source_setter: "Callable[[float], dict[str, Any]] | None"


def _run_replica(replica: _Replica) -> "IVCurve":
    # deferred import: repro.core.sweep itself imports repro.parallel
    from repro.core.sweep import sweep_iv

    return sweep_iv(
        replica.circuit,
        replica.voltages,
        replica.config,
        jumps_per_point=replica.jumps_per_point,
        measure_junctions=replica.junctions,
        orientations=replica.orientations,
        source_setter=replica.source_setter,
        label=f"replica {replica.index}",
    )


def ensemble_iv(
    circuit: "Circuit",
    voltages: Sequence[float],
    replicas: int,
    config: "SimulationConfig | None" = None,
    jumps_per_point: int = 4000,
    measure_junctions: Sequence[int] = (0,),
    orientations: Sequence[int] | None = None,
    source_setter: "Callable[[float], dict[str, Any]] | None" = None,
    label: str = "",
    *,
    jobs: int | None = 1,
    policy: ExecutionPolicy | None = None,
    campaign: "CampaignStore | str | Path | None" = None,
) -> EnsembleIV:
    """Run ``replicas`` independent I-V sweeps and stack the results.

    Replica ``r`` always simulates with the seed spawned at index ``r``
    from ``config.seed``, so the ensemble is deterministic and
    bit-identical for every ``jobs`` value; ``jobs`` distributes the
    replicas over worker processes.  ``policy`` adds per-replica
    retry/timeout fault tolerance; ``campaign`` keeps completed replica
    curves in the durable content-addressed store (forcing event
    hashing), so a rerun of an interrupted ensemble — or a larger one
    sharing its root seed — computes only the missing replicas.  The
    execution path is :func:`repro.core.sweep.run_sweep_shards`.
    """
    from repro.core.sweep import run_sweep_shards

    if replicas < 1:
        raise SimulationError(f"replicas must be >= 1, got {replicas}")
    volts = np.asarray(voltages, dtype=float)

    def make_shards(cfg: "SimulationConfig") -> list[_Replica]:
        seeds = spawn_seeds(cfg.seed, replicas)
        return [
            _Replica(
                index=r,
                circuit=circuit,
                config=cfg.replace(seed=seeds[r]),
                voltages=volts,
                jumps_per_point=jumps_per_point,
                junctions=list(measure_junctions),
                orientations=(
                    list(orientations) if orientations is not None else None
                ),
                source_setter=source_setter,
            )
            for r in range(replicas)
        ]

    curves, stats, event_hash = run_sweep_shards(
        "ensemble_iv", _run_replica, make_shards, circuit, config, volts,
        jumps_per_point,
        span=(
            "ensemble.iv", "parallel",
            {"replicas": replicas, "points": len(volts), "label": label},
        ),
        label=label, jobs=jobs, policy=policy, campaign=campaign,
        replicas=replicas,
    )
    return EnsembleIV(
        volts,
        np.vstack([c.currents for c in curves]),
        label,
        stats=stats,
        event_hash=event_hash,
    )
