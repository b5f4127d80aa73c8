"""Runtime determinism sanitizer (``repro run --dsan``).

This module verifies the determinism contract *on a live run*:

* :func:`dsan_mode` arms the process-pool layer
  (:mod:`repro.parallel.pool`): every shard payload is
  pickle-round-tripped before submission, the worker callable is
  verified to be a plain module-level function, and each worker
  fingerprints its process-global state (global numpy/stdlib RNGs,
  active telemetry registry) before and after the shard — a stray
  ``np.random.random()`` in solver code changes the fingerprint and is
  reported as a :class:`~repro.errors.DeterminismError` state leak.
* the **event-stream hash**: with
  :attr:`repro.core.config.SimulationConfig.event_hash` enabled, every
  solver maintains an order-sensitive BLAKE2 digest of its realised
  tunnel events (kind, junction, direction, electron count, endpoint
  islands, exact ``dt`` bits).  Shard digests are folded in shard
  order by :func:`fold_hashes`, so the combined hash is a pure
  function of the shard layout — identical for every ``jobs`` value.
* :func:`verify_shadow` runs the same seeded simulation twice and
  compares the hashes: any hidden entropy (global RNG, wall clock,
  unordered iteration) makes the replicas diverge.

Nothing here imports the pool or the solvers: the dependency points
the other way, so the sanitizer can be armed before they load.
"""

from __future__ import annotations

import dataclasses
import hashlib
import pickle
import random
from contextlib import contextmanager
from typing import Any, Callable, Iterator, Sequence

import numpy as np

from repro.errors import DeterminismError

#: Digest size (bytes) of every event-stream hash in the package.
DIGEST_SIZE = 16

# ----------------------------------------------------------------------
# mode flag
# ----------------------------------------------------------------------

_ACTIVE = False


def active() -> bool:
    """Is the runtime sanitizer armed in this process?"""
    return _ACTIVE


@contextmanager
def dsan_mode() -> Iterator[None]:
    """Arm the runtime sanitizer for the duration of the block."""
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = True
    try:
        yield
    finally:
        _ACTIVE = previous


# ----------------------------------------------------------------------
# event-stream hashing
# ----------------------------------------------------------------------

def new_digest() -> "hashlib.blake2b":
    """A fresh event-stream digest (BLAKE2b, :data:`DIGEST_SIZE`)."""
    return hashlib.blake2b(digest_size=DIGEST_SIZE)


def fold_hashes(hashes: Sequence[str]) -> str:
    """Order-sensitive fold of per-shard hex digests.

    The fold runs in *shard order* — which the pool guarantees is the
    submission order regardless of completion order — so the result
    depends only on the shard layout, never on worker count or
    scheduling.  Folding a single digest is deliberately *not* the
    identity: a one-chunk sweep and a bare engine run hash differently
    because they are different experiments.
    """
    digest = new_digest()
    for item in hashes:
        digest.update(bytes.fromhex(item))
    return digest.hexdigest()


@dataclasses.dataclass(frozen=True)
class ShadowReport:
    """Outcome of one shadow-run comparison."""

    hash_primary: str
    hash_shadow: str
    label: str = "run"

    @property
    def match(self) -> bool:
        return self.hash_primary == self.hash_shadow

    def format(self) -> str:
        if self.match:
            return (
                f"dsan: {self.label}: event streams identical "
                f"(hash {self.hash_primary})"
            )
        return (
            f"dsan: {self.label}: EVENT STREAMS DIVERGE "
            f"({self.hash_primary} != {self.hash_shadow})"
        )


def verify_shadow(
    run: Callable[[], str | None], label: str = "run"
) -> ShadowReport:
    """Execute ``run`` twice and compare its event-stream hashes.

    ``run`` must perform one *identically seeded* simulation per call
    and return its event-stream hash.  Raises
    :class:`DeterminismError` when the replicas diverge — the seeded
    RNG stream was not the only entropy in the run — or when no hash
    was produced.
    """
    primary = run()
    shadow = run()
    if primary is None or shadow is None:
        raise DeterminismError(
            f"{label}: no event-stream hash produced; enable "
            "SimulationConfig.event_hash for the shadow comparison"
        )
    report = ShadowReport(primary, shadow, label)
    if not report.match:
        raise DeterminismError(
            f"{label}: shadow run diverged from the primary run under the "
            f"same seed ({primary} != {shadow}); the simulation consumed "
            "entropy outside its seeded Generator (global RNG, wall clock, "
            "or unordered iteration)"
        )
    return report


# ----------------------------------------------------------------------
# pool-boundary verification
# ----------------------------------------------------------------------

def verify_worker(worker: Callable[..., Any]) -> None:
    """Require a plain module-level callable for the pool boundary."""
    qualname = getattr(worker, "__qualname__", "")
    if "<locals>" in qualname or "<lambda>" in qualname:
        raise DeterminismError(
            f"dsan: worker {qualname or worker!r} is a lambda or locally "
            "defined function; pool workers must be module-level so they "
            "pickle by reference and capture no state"
        )
    try:
        pickle.dumps(worker)
    except Exception as exc:  # repro: allow[REPRO001] pickle raises arbitrary types
        raise DeterminismError(
            f"dsan: worker {qualname or worker!r} cannot be pickled across "
            f"the process boundary: {exc}"
        )


def verify_payload(payload: Any, index: int) -> None:
    """Round-trip one shard payload through pickle before submission.

    Serial (``jobs=1``) runs never pickle their payloads, so a
    closure-carrying payload "works on my machine" until someone passes
    ``--jobs 4``; in dsan mode the serial path performs the same
    round-trip the pool would.
    """
    try:
        blob = pickle.dumps(payload)
        pickle.loads(blob)
    except Exception as exc:  # repro: allow[REPRO001] pickle raises arbitrary types
        raise DeterminismError(
            f"dsan: shard payload #{index} does not survive a pickle "
            f"round-trip: {exc}; shard payloads must be plain picklable "
            "data"
        )


# ----------------------------------------------------------------------
# worker state-leak detection
# ----------------------------------------------------------------------

def state_fingerprint() -> dict[str, str]:
    """Hashes of the process-global state a simulation must not touch.

    Covers the legacy global numpy ``RandomState``, the stdlib
    ``random`` module state and the identity of the active telemetry
    registry.  Cheap (three small hashes), so workers can afford one
    before and one after every shard.
    """
    return {
        "numpy.random (global RandomState)": hashlib.blake2b(
            pickle.dumps(np.random.get_state()), digest_size=8
        ).hexdigest(),
        "random (stdlib global RNG)": hashlib.blake2b(
            pickle.dumps(random.getstate()), digest_size=8
        ).hexdigest(),
        "telemetry registry": _registry_identity(),
    }


def _registry_identity() -> str:
    from repro.telemetry import registry as _telemetry

    return "none" if _telemetry.ACTIVE is None else (
        f"{type(_telemetry.ACTIVE).__name__}@{id(_telemetry.ACTIVE):#x}"
    )


def diff_fingerprints(
    before: dict[str, str], after: dict[str, str]
) -> list[str]:
    """Names of the state slots that changed during a shard."""
    return [name for name in before if after.get(name) != before[name]]


def raise_state_leaks(leaks: Sequence[tuple[int, list[str]]]) -> None:
    """Raise a :class:`DeterminismError` describing worker state leaks."""
    if not leaks:
        return
    details = "; ".join(
        f"shard #{index} mutated {', '.join(names)}"
        for index, names in leaks
    )
    raise DeterminismError(
        f"dsan: pool worker state leak: {details}. Simulation code drew "
        "from a process-global RNG or left telemetry installed — state "
        "the reproducibility contract requires to stay untouched"
    )
