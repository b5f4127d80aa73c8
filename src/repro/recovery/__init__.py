"""Fault-tolerant execution for sharded runs.

Long Monte Carlo campaigns die for boring reasons — a worker OOMs, a
node reboots, someone hits Ctrl-C — and without this layer one dead
process throws away hours of ``sweep_map``/``ensemble_iv`` work.  This
package makes sharded execution survivable without touching its
reproducibility contract:

* :class:`ExecutionPolicy` — bounded retry with capped deterministic
  backoff, per-shard timeouts, pool rebuild limits and inline
  degradation, consumed by :func:`repro.parallel.pool.execute_shards`;
* :class:`FaultPlan` / :func:`injected_faults` — test-only fault
  injection (kill/hang/raise per shard per attempt) so every recovery
  path is exercised by pytest rather than trusted.

Finished shards are kept by the campaign store
(:mod:`repro.campaign`, ``campaign=`` / ``--campaign DIR``): a rerun
of an interrupted sweep on the same store replays the finished shards
and computes only the rest.

The invariant everything here preserves: a retried shard re-runs with
its own spawned seed, so retries, rebuilds and cached reruns are all
bit-identical to an uninterrupted run — same arrays, same fold-order
combined dsan event hash.  Failures surface as
:class:`repro.errors.RecoveryError` with the worker's exception as
``__cause__``.
"""

from __future__ import annotations

from repro.errors import RecoveryError
from repro.recovery.faults import (
    FaultPlan,
    FaultSpec,
    InjectedFault,
    clear_faults,
    current_plan,
    injected_faults,
    install_faults,
)
from repro.recovery.policy import ExecutionPolicy

__all__ = [
    "ExecutionPolicy",
    "FaultPlan",
    "FaultSpec",
    "InjectedFault",
    "RecoveryError",
    "clear_faults",
    "current_plan",
    "injected_faults",
    "install_faults",
]
