"""Process-wide instrumentation registry: spans, counters, gauges,
histograms and a bounded trace-event buffer.

Design contract — **zero cost when off**:

* telemetry is *disabled* whenever no registry is installed
  (:data:`ACTIVE` is ``None``, the default);
* nothing is instrumented per tunnel event: the engine adds a run's
  event count to ``solver.events`` once, after the run, so an enabled
  metrics-only registry costs no more per event than a disabled one;
* a disabled instrumented operation pays one module-attribute load and
  one ``is None`` test (:func:`span` returns a shared no-op context
  manager without allocating);
* nothing is imported, allocated or formatted until a registry is
  installed with :func:`enable` / :func:`session`.

The registry is deliberately not thread-safe: the Monte Carlo engine
is single-threaded per run, and a registry is meant to observe one run
(or one sweep) at a time.  Install one registry per worker if runs are
ever parallelised.
"""

from __future__ import annotations

import dataclasses
import math
from contextlib import contextmanager
from types import TracebackType
from typing import Any, Iterator

from repro.errors import TelemetryError
from repro.telemetry.clock import wall_time


@dataclasses.dataclass
class TraceEvent:
    """One record of the trace buffer: a completed span.

    ``phase`` is the Chrome trace-event phase, ``"X"`` (a complete
    span with ``dur``).  ``ts`` and ``dur`` are seconds relative to the
    registry's epoch.
    """

    name: str
    phase: str
    ts: float
    dur: float = 0.0
    category: str = ""
    args: dict[str, Any] = dataclasses.field(default_factory=dict)


class Counter:
    """Monotonically increasing integer metric."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0

    def add(self, amount: int = 1) -> None:
        if amount < 0:
            raise TelemetryError(
                f"counter {self.name!r} cannot decrease (got {amount})"
            )
        self.value += amount


class Gauge:
    """Last-value-wins float metric."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)


class Histogram:
    """Streaming moments of an observed quantity (no samples kept).

    Carries the Welford second moment ``m2`` alongside count/total/
    min/max, so a histogram (and any merge of histograms — see
    :meth:`TelemetryRegistry.merge_snapshot`) reports a correct
    standard deviation without retaining samples.
    """

    __slots__ = ("name", "count", "total", "m2", "minimum", "maximum")

    def __init__(self, name: str):
        self.name = name
        self.count = 0
        self.total = 0.0
        self.m2 = 0.0
        self.minimum = math.inf
        self.maximum = -math.inf

    def observe(self, value: float) -> None:
        value = float(value)
        old_mean = self.total / self.count if self.count else 0.0
        self.count += 1
        self.total += value
        # Welford update phrased against the running total: m2
        # accumulates sum((x - mean)^2) without catastrophic
        # cancellation
        self.m2 += (value - old_mean) * (value - self.total / self.count)
        if value < self.minimum:
            self.minimum = value
        if value > self.maximum:
            self.maximum = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    @property
    def std(self) -> float:
        """Population standard deviation of the observed values."""
        if self.count < 2:
            return 0.0
        return math.sqrt(max(self.m2, 0.0) / self.count)

    def as_dict(self) -> dict[str, float]:
        return {
            "count": float(self.count),
            "total": self.total,
            "mean": self.mean,
            "m2": self.m2,
            "std": self.std,
            "min": self.minimum if self.count else 0.0,
            "max": self.maximum if self.count else 0.0,
        }


class Span:
    """No-op span; the object :func:`span` returns while disabled.

    A single shared instance is reused, so a disabled ``with span(...)``
    allocates nothing.
    """

    __slots__ = ()

    def set(self, key: str, value: Any) -> None:
        """Attach an argument to the span (ignored when disabled)."""

    def __enter__(self) -> Span:
        return self

    def __exit__(
        self,
        exc_type: type[BaseException] | None,
        exc: BaseException | None,
        tb: TracebackType | None,
    ) -> None:
        return None


_NULL_SPAN = Span()


class _LiveSpan(Span):
    """Span that records a complete ("X") trace event on exit."""

    __slots__ = ("_registry", "name", "category", "args", "_t0")

    def __init__(
        self,
        registry_: TelemetryRegistry,
        name: str,
        category: str,
        args: dict[str, Any],
    ):
        self._registry = registry_
        self.name = name
        self.category = category
        self.args = args
        self._t0 = 0.0

    def set(self, key: str, value: Any) -> None:
        self.args[key] = value

    def __enter__(self) -> _LiveSpan:
        self._t0 = self._registry.now()
        return self

    def __exit__(
        self,
        exc_type: type[BaseException] | None,
        exc: BaseException | None,
        tb: TracebackType | None,
    ) -> None:
        registry_ = self._registry
        t0 = self._t0
        registry_.record(
            TraceEvent(
                name=self.name,
                phase="X",
                ts=t0,
                dur=registry_.now() - t0,
                category=self.category,
                args=self.args,
            )
        )
        return None


class TelemetryRegistry:
    """Holds the metrics and the trace buffer of one observation window.

    Parameters
    ----------
    trace:
        Record a :class:`TraceEvent` per span.  With ``trace=False``
        only metrics (counters, gauges, histograms) accumulate — the
        mode the CLI's run ledger and the pool's workers use.
    max_trace_events:
        Bound on the trace buffer.  Once full, further records are
        counted in :attr:`dropped_events` instead of stored, so a
        pathological run degrades gracefully instead of exhausting
        memory.
    """

    def __init__(self, trace: bool = True, max_trace_events: int = 1_000_000):
        if max_trace_events < 0:
            raise TelemetryError(
                f"max_trace_events must be >= 0, got {max_trace_events}"
            )
        self.trace = trace
        self.max_trace_events = max_trace_events
        self.epoch = wall_time()
        self.events: list[TraceEvent] = []
        self.dropped_events = 0
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}
        # highest shard index that contributed each merged gauge, so
        # snapshot folding is deterministic whatever the fold order
        self._gauge_shards: dict[str, int] = {}

    # ------------------------------------------------------------------
    # metrics
    # ------------------------------------------------------------------
    def counter(self, name: str) -> Counter:
        """Get or create the named counter."""
        found = self._counters.get(name)
        if found is None:
            found = self._counters[name] = Counter(name)
        return found

    def gauge(self, name: str) -> Gauge:
        """Get or create the named gauge."""
        found = self._gauges.get(name)
        if found is None:
            found = self._gauges[name] = Gauge(name)
        return found

    def histogram(self, name: str) -> Histogram:
        """Get or create the named histogram."""
        found = self._histograms.get(name)
        if found is None:
            found = self._histograms[name] = Histogram(name)
        return found

    def metrics(self) -> dict[str, dict[str, Any]]:
        """Snapshot of every metric, keyed by kind then name."""
        return {
            "counters": {c.name: c.value for c in self._counters.values()},
            "gauges": {g.name: g.value for g in self._gauges.values()},
            "histograms": {
                h.name: h.as_dict() for h in self._histograms.values()
            },
        }

    def merge_snapshot(
        self,
        metrics: dict[str, dict[str, Any]],
        shard: int | None = None,
    ) -> None:
        """Fold a :meth:`metrics` snapshot from another registry into
        this one — how parallel workers report back to the parent
        session.

        Counters add and histograms combine their streaming moments
        (Chan's parallel variance merge for ``m2``, so the merged
        histogram reports a correct std).  Gauges are last-value
        metrics: with ``shard`` given, the value from the *highest*
        shard index wins regardless of the order the snapshots are
        folded in, so a merged gauge is deterministic and
        jobs-invariant; without ``shard`` the snapshot simply adopts
        (in-process last-wins semantics).  Trace events are
        per-process and are *not* transported.
        """
        for name, value in metrics.get("counters", {}).items():
            self.counter(name).add(int(value))
        for name, value in metrics.get("gauges", {}).items():
            if shard is None:
                self.gauge(name).set(float(value))
                continue
            seen = self._gauge_shards.get(name)
            if seen is None or shard >= seen:
                self._gauge_shards[name] = shard
                self.gauge(name).set(float(value))
        for name, moments in metrics.get("histograms", {}).items():
            count = int(moments.get("count", 0))
            if count <= 0:
                continue
            hist = self.histogram(name)
            total = float(moments.get("total", 0.0))
            if hist.count:
                # Chan et al. parallel merge: combine the two second
                # moments plus the between-parts mean-shift term
                delta = total / count - hist.total / hist.count
                hist.m2 += float(moments.get("m2", 0.0)) + (
                    delta * delta * hist.count * count / (hist.count + count)
                )
            else:
                hist.m2 = float(moments.get("m2", 0.0))
            hist.count += count
            hist.total += total
            low = float(moments.get("min", math.inf))
            high = float(moments.get("max", -math.inf))
            if low < hist.minimum:
                hist.minimum = low
            if high > hist.maximum:
                hist.maximum = high

    def peek_counter(self, name: str) -> int:
        """Current value of a counter *without* creating it (0 when the
        counter does not exist).  Safe to call from an observer thread:
        it never mutates the registry."""
        found = self._counters.get(name)
        return found.value if found is not None else 0

    # ------------------------------------------------------------------
    # tracing
    # ------------------------------------------------------------------
    def now(self) -> float:
        """Seconds since this registry's epoch."""
        return wall_time() - self.epoch

    def record(self, event: TraceEvent) -> None:
        """Append a trace record, honouring the buffer bound."""
        if not self.trace:
            return
        if len(self.events) >= self.max_trace_events:
            self.dropped_events += 1
            return
        self.events.append(event)

    def span(self, name: str, category: str = "", **args: Any) -> Span:
        """Context manager recording a complete span around its body."""
        if not self.trace:
            return _NULL_SPAN
        return _LiveSpan(self, name, category, args)


#: The process-wide active registry; ``None`` means telemetry is
#: disabled.  Hot paths read this attribute directly (one load + one
#: ``is None`` test); mutate it only through :func:`enable`,
#: :func:`disable`, :func:`set_registry` or :func:`session`.
ACTIVE: TelemetryRegistry | None = None


def get_registry() -> TelemetryRegistry | None:
    """The active registry, or ``None`` while telemetry is disabled."""
    return ACTIVE


def set_registry(
    registry_: TelemetryRegistry | None,
) -> TelemetryRegistry | None:
    """Install ``registry_`` as the active registry; returns the
    previous one (``None`` if telemetry was disabled)."""
    # a worker-side write is the contract here: _shard_entry
    # installs a worker-local registry via session(), which restores the
    # previous value on exit; metrics ride back in the shard result and the
    # runtime sanitizer's state fingerprint verifies the restoration.
    global ACTIVE
    previous = ACTIVE
    ACTIVE = registry_
    return previous


def enable(
    trace: bool = True, max_trace_events: int = 1_000_000
) -> TelemetryRegistry:
    """Install and return a fresh active registry."""
    registry_ = TelemetryRegistry(trace=trace, max_trace_events=max_trace_events)
    set_registry(registry_)
    return registry_


def disable() -> None:
    """Remove the active registry; instrumentation reverts to no-ops."""
    set_registry(None)


@contextmanager
def session(
    trace: bool = True, max_trace_events: int = 1_000_000
) -> Iterator[TelemetryRegistry]:
    """Scoped telemetry: install a fresh registry, restore the previous
    one (usually ``None``) on exit.

    >>> from repro.telemetry import registry
    >>> with registry.session() as reg:    # doctest: +SKIP
    ...     engine.run(max_jumps=1000)
    >>> reg.counter("solver.events").value  # doctest: +SKIP
    1000
    """
    registry_ = TelemetryRegistry(trace=trace, max_trace_events=max_trace_events)
    previous = set_registry(registry_)
    try:
        yield registry_
    finally:
        set_registry(previous)


def span(name: str, category: str = "", **args: Any) -> Span:
    """Module-level span helper: a live span when telemetry is enabled,
    the shared no-op span otherwise.

    This is the form library code uses (``with span("engine.run"):``);
    it never allocates while disabled.
    """
    registry_ = ACTIVE
    if registry_ is None:
        return _NULL_SPAN
    return registry_.span(name, category, **args)
