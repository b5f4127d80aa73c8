"""Test-only fault injection for the resilient shard pool.

A :class:`FaultPlan` describes misbehaviour to stage — *kill shard i on
attempt j*, *hang past the shard timeout*, *raise mid-worker* — and is
installed process-wide with :func:`injected_faults`.  The pool threads
the matching :class:`FaultSpec` into each shard submission, and the
subprocess entry calls :func:`perform` before running the real worker,
so every recovery path (dead worker, timeout, raised exception,
retry-until-exhaustion) is drivable from pytest without monkeypatching
executor internals.

Nothing in production code ever installs a plan; with no plan installed
the per-shard lookup is a single ``None`` check.  The plan lives only
in the installing process — worker subprocesses receive their fault as
part of the submission, never via inherited module state — so fork/
spawn start methods behave identically.
"""

from __future__ import annotations

import contextlib
import dataclasses
import os
import time
from collections.abc import Iterator

from repro.errors import RecoveryError, SimulationError

_ACTIONS = ("kill", "raise", "hang")

#: exit status used by ``kill`` faults — mirrors a worker dying on
#: SIGKILL closely enough that ProcessPoolExecutor marks the pool broken
_KILL_EXIT = 113


class InjectedFault(RecoveryError):
    """The exception a ``raise`` fault throws inside a worker."""


@dataclasses.dataclass(frozen=True)
class FaultSpec:
    """One staged misbehaviour: ``action`` on ``shard`` for ``attempts``.

    ``attempts`` lists the 1-based attempt numbers the fault fires on;
    empty means *every* attempt (useful for exhaustion tests).
    ``delay`` is the hang duration in seconds for ``action="hang"``.
    """

    shard: int
    action: str
    attempts: tuple[int, ...] = (1,)
    delay: float = 0.0

    def __post_init__(self) -> None:
        if self.action not in _ACTIONS:
            raise SimulationError(
                f"unknown fault action {self.action!r}; expected one of {_ACTIONS}"
            )
        if self.shard < 0:
            raise SimulationError(f"fault shard index must be >= 0, got {self.shard}")

    def fires_on(self, attempt: int) -> bool:
        return not self.attempts or attempt in self.attempts


@dataclasses.dataclass(frozen=True)
class FaultPlan:
    """An ordered collection of :class:`FaultSpec` records."""

    faults: tuple[FaultSpec, ...] = ()

    def spec_for(self, shard: int, attempt: int) -> FaultSpec | None:
        """The first fault staged for ``(shard, attempt)``, if any."""
        for spec in self.faults:
            if spec.shard == shard and spec.fires_on(attempt):
                return spec
        return None


_PLAN: FaultPlan | None = None


def install_faults(plan: FaultPlan) -> None:
    """Arm ``plan`` for subsequent ``execute_shards`` calls."""
    global _PLAN
    _PLAN = plan


def clear_faults() -> None:
    """Disarm any installed plan."""
    global _PLAN
    _PLAN = None


def current_plan() -> FaultPlan | None:
    """The installed plan, or ``None`` (the production state)."""
    return _PLAN


@contextlib.contextmanager
def injected_faults(plan: FaultPlan) -> Iterator[FaultPlan]:
    """Context manager: install ``plan``, always disarm on exit."""
    install_faults(plan)
    try:
        yield plan
    finally:
        clear_faults()


def perform(spec: FaultSpec, inline: bool = False) -> None:
    """Execute a staged fault at the top of a shard attempt.

    ``kill`` exits the worker process without cleanup, which the parent
    observes as :class:`~concurrent.futures.process.BrokenProcessPool`;
    inline (no subprocess to kill) it raises instead.  ``hang`` sleeps
    ``delay`` seconds and then lets the shard continue — pair it with a
    ``shard_timeout`` shorter than the delay to exercise the deadline
    path.  ``raise`` throws :class:`InjectedFault`.
    """
    if spec.action == "hang":
        time.sleep(spec.delay)
        return
    if spec.action == "kill" and not inline:
        os._exit(_KILL_EXIT)
    raise InjectedFault(
        f"injected fault: {spec.action} shard #{spec.shard}", shard=spec.shard
    )

