"""Exception hierarchy for the SEMSIM reproduction.

Every error raised deliberately by this package derives from
:class:`SemsimError`, so callers can catch one type at the API boundary.
"""

from __future__ import annotations


class SemsimError(Exception):
    """Base class for all errors raised by this package."""


class CircuitError(SemsimError):
    """Raised for malformed circuits (bad topology, values, indices)."""


class NetlistError(SemsimError):
    """Raised when parsing a SEMSIM input file or logic netlist fails."""

    def __init__(self, message: str, line_number: int | None = None):
        self.line_number = line_number
        if line_number is not None:
            message = f"line {line_number}: {message}"
        super().__init__(message)


class SimulationError(SemsimError):
    """Raised when a simulation cannot proceed (no events, bad config)."""


class FrozenCircuitError(SimulationError):
    """Raised when every tunnel rate vanishes: the circuit is frozen.

    Deep Coulomb blockade at low temperature carries no current, so
    sweep loops treat this one condition as "current = 0" — while every
    other :class:`SimulationError` (bad configuration, no simulated
    time elapsed, ...) keeps signalling a genuine failure.
    """


class ConvergenceError(SemsimError):
    """Raised by the SPICE-style solver when Newton iteration diverges.

    The paper reports exactly this failure mode for three of the fifteen
    benchmarks (74LS153, 54LS181, c1908); we surface it the same way.
    """


class PhysicsError(SemsimError):
    """Raised for physically inconsistent model parameters."""


class TelemetryError(SemsimError):
    """Raised for misuse of the telemetry layer (bad metric kinds,
    unwritable trace destinations, malformed export requests, a
    regression threshold outside (0, 1))."""


class RecoveryError(SimulationError):
    """Raised by the fault-tolerant execution layer (``repro.recovery``)
    when a shard exhausts its retry budget or the worker pool breaks
    more often than the policy allows.

    Carries the failing shard index in :attr:`shard` and the number of
    attempts charged to it in :attr:`attempts` (both ``None`` for
    pool-level failures); the underlying worker exception, if any,
    rides along as ``__cause__``.
    """

    def __init__(
        self,
        message: str,
        *,
        shard: int | None = None,
        attempts: int | None = None,
    ):
        self.shard = shard
        self.attempts = attempts
        super().__init__(message)


class CampaignError(SimulationError):
    """Raised by the campaign layer (``repro.campaign``) for misuse of
    the content-addressed result store: an empty or malformed parameter
    space, an unwritable store directory, or a cell payload that cannot
    be content-addressed.  Store *corruption* is never fatal — corrupt
    cells are dropped and recomputed."""


class GeneratorError(SemsimError):
    """Raised by the scenario generator (``repro.gen``) for misuse of
    the generator itself: unknown device families, malformed parameter
    spaces, or a corpus entry that cannot be replayed.  A *generated*
    case that fails its own lint gate is never an exception — the
    differential driver records it as a ``generator-bug`` verdict."""


class DeterminismError(SemsimError):
    """Raised by the *runtime* determinism sanitizer (``--dsan``) when
    a reproducibility contract is violated: shadow-run event-stream
    hashes diverge, a shard payload fails to pickle, or a pool worker
    leaks process-global state (e.g. draws from the global RNG)."""


class LintError(SemsimError):
    """Raised by strict-mode parsing/building when static analysis of a
    deck, circuit or netlist finds error-severity problems.

    Carries the offending :class:`repro.lint.Diagnostic` records in
    :attr:`diagnostics` (typed loosely here so the base error module
    stays import-free).
    """

    def __init__(self, message: str, diagnostics: tuple[object, ...] = ()):
        self.diagnostics = tuple(diagnostics)
        super().__init__(message)
