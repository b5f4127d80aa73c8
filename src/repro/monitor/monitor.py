"""Parent-side live run monitoring: the :class:`RunMonitor`.

The monitor aggregates two information streams about an executing
shard batch, both strictly *out-of-band*:

* **lifecycle calls** from :func:`repro.parallel.pool.execute_shards`
  (shard submitted / finished / retried, and shards resumed from the
  campaign store) made directly in the parent process;
* **progress datagrams** (:class:`repro.monitor.stream.ShardMessage`)
  that pooled workers push onto a ``multiprocessing`` manager queue —
  cumulative event counts and heartbeats, drained by the monitor's
  render thread.

Inline shards (``jobs=1``) write their telemetry straight into the
parent registry, so the monitor reads live event counts from there
instead of the queue.  Either way the monitor never feeds anything
*back* into the run: no seeds, no payloads, no registry mutations —
results and the dsan combined event hash are bit-identical with
monitoring on or off (see ``tests/test_monitor.py``).

Heartbeat gaps surface stalled shards *before*
``ExecutionPolicy.shard_timeout`` fires: a pooled shard whose last
datagram is older than ``stall_after`` seconds is flagged in the
progress line while the pool is still waiting on it.

Install a monitor with :func:`monitor_session`; the pool discovers it
through :func:`current` exactly like the fault-injection and dsan
layers discover theirs.
"""

from __future__ import annotations

import queue as _queue
import sys
import threading
from contextlib import contextmanager
from typing import Any, Iterator, TextIO

from repro.monitor.render import ProgressRenderer
from repro.monitor.stream import (
    DEFAULT_INTERVAL,
    KIND_DONE,
    MonitorHandle,
    ShardMessage,
)
from repro.telemetry import registry as _telemetry
from repro.telemetry.clock import wall_time


class RunMonitor:
    """Aggregate and render the live state of one run's shard batches.

    Thread-safe: lifecycle methods are called from the executing
    thread, datagrams and rendering happen on the monitor's own render
    thread.  All shared state sits behind one lock.
    """

    def __init__(
        self,
        out: TextIO | None = None,
        interval: float = DEFAULT_INTERVAL,
        stall_after: float | None = None,
    ) -> None:
        self.interval = max(float(interval), 0.05)
        self.stall_after = (
            float(stall_after) if stall_after is not None
            else max(6.0 * self.interval, 3.0)
        )
        self.renderer = ProgressRenderer(out if out is not None else sys.stderr)
        self._lock = threading.Lock()
        self._manager: Any = None
        self._channel: Any = None
        self._thread: threading.Thread | None = None
        self._stop = threading.Event()
        self._batch_depth = 0
        # batch state (reset by begin_batch)
        self._total = 0
        self._done = 0
        self._retried = 0
        self._resumed = 0
        self._started = wall_time()
        self._inflight: dict[int, float] = {}          # shard -> submit ts
        self._last_heard: dict[int, float] = {}        # shard -> last datagram ts
        self._shard_events: dict[int, int] = {}        # shard -> cumulative events
        self._registry_base = 0
        self._registry: _telemetry.TelemetryRegistry | None = None
        self._finished_snapshots: list[dict[str, Any]] = []

    # ------------------------------------------------------------------
    # lifecycle (render thread)
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Start the render/drain thread."""
        if self._thread is not None:
            return
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._loop, name="repro-monitor", daemon=True
        )
        self._thread.start()

    def close(self) -> None:
        """Stop rendering and release the manager process."""
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=2.0)
            self._thread = None
        if self._manager is not None:
            self._manager.shutdown()
            self._manager = None
            self._channel = None

    def _loop(self) -> None:
        while not self._stop.wait(self.interval):
            self.poll()

    def poll(self) -> None:
        """Drain pending datagrams and render one update (also called
        directly by tests for deterministic stepping)."""
        self._drain()
        with self._lock:
            if self._batch_depth <= 0 and self._total == 0:
                return
            snap = self._snapshot_locked()
        self.renderer.update(snap, wall_time())

    # ------------------------------------------------------------------
    # pool-facing lifecycle (executing thread)
    # ------------------------------------------------------------------
    def begin_batch(self, total: int, resumed: int = 0) -> bool:
        """Open a shard batch; returns False for nested batches.

        Only the outermost :func:`execute_shards` call of a run is
        monitored — an inline ensemble replica re-enters the pool for
        its inner sweep, and those inner shards are already accounted
        for by the outer batch.
        """
        with self._lock:
            self._batch_depth += 1
            if self._batch_depth > 1:
                return False
            self._total = total
            self._done = resumed
            self._retried = 0
            self._resumed = resumed
            self._started = wall_time()
            self._inflight.clear()
            self._last_heard.clear()
            self._shard_events.clear()
            self._registry = _telemetry.ACTIVE
            self._registry_base = (
                self._registry.peek_counter("solver.events")
                if self._registry is not None else 0
            )
            return True

    def end_batch(self) -> None:
        """Close the current batch and print the terminal summary."""
        self._drain()
        with self._lock:
            self._batch_depth = max(self._batch_depth - 1, 0)
            if self._batch_depth > 0:
                return
            self._inflight.clear()
            snap = self._snapshot_locked()
            self._finished_snapshots.append(snap)
        self.renderer.finish(snap)

    def shard_started(self, shard: int, attempt: int) -> None:
        now = wall_time()
        with self._lock:
            self._inflight[shard] = now
            self._last_heard.setdefault(shard, now)

    def shard_finished(self, shard: int) -> None:
        with self._lock:
            self._inflight.pop(shard, None)
            self._last_heard.pop(shard, None)
            self._done += 1

    def shard_retried(self, shard: int) -> None:
        with self._lock:
            self._inflight.pop(shard, None)
            self._last_heard.pop(shard, None)
            self._retried += 1

    def worker_channel(self, shard: int) -> MonitorHandle:
        """The picklable handle a pooled worker streams progress with.

        The manager (and its queue) is created lazily on first use, so
        purely inline runs never pay for a manager process.
        """
        with self._lock:
            if self._channel is None:
                import multiprocessing

                self._manager = multiprocessing.Manager()
                self._channel = self._manager.Queue()
            return MonitorHandle(self._channel, shard, self.interval)

    # ------------------------------------------------------------------
    # aggregation
    # ------------------------------------------------------------------
    def _drain(self) -> None:
        channel = self._channel
        if channel is None:
            return
        now = wall_time()
        while True:
            try:
                message = channel.get_nowait()
            except _queue.Empty:
                return
            except (OSError, EOFError, BrokenPipeError):
                return
            if not isinstance(message, ShardMessage):
                continue
            with self._lock:
                self._last_heard[message.shard] = now
                self._shard_events[message.shard] = max(
                    self._shard_events.get(message.shard, 0),
                    int(message.events),
                )
                if message.kind == KIND_DONE:
                    # terminal datagram: the shard's event count is final
                    self._last_heard.pop(message.shard, None)

    def _snapshot_locked(self) -> dict[str, Any]:
        now = wall_time()
        elapsed = max(now - self._started, 1e-9)
        inline_events = 0
        if self._registry is not None:
            inline_events = max(
                self._registry.peek_counter("solver.events")
                - self._registry_base,
                0,
            )
        events = inline_events + sum(self._shard_events.values())
        fresh_done = self._done - self._resumed
        eta = None
        remaining = self._total - self._done
        if fresh_done > 0 and remaining > 0:
            eta = elapsed / fresh_done * remaining
        stalled = sorted(
            (shard, now - heard)
            for shard, heard in self._last_heard.items()
            if shard in self._inflight and now - heard >= self.stall_after
        )
        return {
            "total": self._total,
            "done": self._done,
            "in_flight": len(self._inflight),
            "retried": self._retried,
            "resumed": self._resumed,
            "events": events,
            "events_per_second": events / elapsed if events else 0.0,
            "eta_seconds": eta,
            "elapsed_seconds": elapsed,
            "stalled": stalled,
        }

    def snapshot(self) -> dict[str, Any]:
        """The current aggregate state (for tests and the CLI)."""
        self._drain()
        with self._lock:
            return self._snapshot_locked()


#: The installed monitor; ``None`` means live monitoring is off.  The
#: pool reads this exactly like ``telemetry.registry.ACTIVE``.
_ACTIVE: RunMonitor | None = None


def current() -> RunMonitor | None:
    """The active run monitor, or ``None`` when monitoring is off."""
    return _ACTIVE


def set_monitor(monitor: RunMonitor | None) -> RunMonitor | None:
    """Install ``monitor`` as the active monitor; returns the previous
    one.  Parent-side only — workers never install monitors."""
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = monitor
    return previous


@contextmanager
def monitor_session(
    out: TextIO | None = None,
    interval: float = DEFAULT_INTERVAL,
    stall_after: float | None = None,
) -> Iterator[RunMonitor]:
    """Scoped live monitoring: install a :class:`RunMonitor`, start its
    render thread, restore the previous monitor (usually ``None``) and
    release its resources on exit.
    """
    monitor = RunMonitor(out=out, interval=interval, stall_after=stall_after)
    previous = set_monitor(monitor)
    monitor.start()
    try:
        yield monitor
    finally:
        set_monitor(previous)
        monitor.close()
