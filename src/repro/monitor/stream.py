"""Out-of-band live metric streaming: the worker half.

Workers in :func:`repro.parallel.pool.execute_shards` run one shard as
a single opaque function call; while it executes, the only party that
knows how far along it is is the worker's own telemetry registry
(``solver.events`` advances once per engine run: per sweep point and
per warm-up).  This module ships that knowledge to the parent *without
touching the simulation*:

* a :class:`ShardEmitter` daemon thread samples the worker-local
  registry every ``interval`` seconds and pushes a :class:`ShardMessage`
  — the shard's cumulative event count — onto a ``multiprocessing``
  manager queue;
* the thread only *reads* metric values and the wall clock.  It never
  touches the solver, the RNG, the payload or the result, so results,
  seeds and the dsan combined event hash are bit-identical with
  monitoring on or off.  The messages are advisory: losing every one
  of them changes nothing but the progress display.

The parent half (aggregation, rendering) lives in
:mod:`repro.monitor.monitor`.
"""

from __future__ import annotations

import dataclasses
import threading
from typing import Any

from repro.telemetry import registry as _telemetry
from repro.telemetry.clock import wall_time

#: Message kinds a shard emits over the monitor queue.
KIND_START = "start"
KIND_PROGRESS = "progress"
KIND_DONE = "done"

#: Default sampling period (seconds) of the worker-side emitter; also
#: the parent's render cadence.
DEFAULT_INTERVAL = 0.5


@dataclasses.dataclass
class ShardMessage:
    """One progress datagram from a shard to the parent monitor.

    ``events`` is the shard's *cumulative* realised tunnel-event count
    (robust to lost messages: the latest message alone is sufficient).
    ``elapsed`` is the shard's own monotonic clock, used parent-side
    only for heartbeat-gap / stall detection.
    """

    shard: int
    kind: str
    events: int = 0
    elapsed: float = 0.0


class ShardEmitter:
    """Worker-side sampling thread behind one shard's progress stream.

    Start it around the real worker call::

        emitter = ShardEmitter(queue, shard=3, interval=0.5)
        emitter.start()
        try:
            value = worker(payload)
        finally:
            emitter.stop()

    ``stop()`` joins the thread and sends the final ``done`` message,
    so the parent always sees a terminal datagram even for shards that
    finish between two sampling ticks.
    """

    def __init__(
        self,
        queue: Any,
        shard: int,
        interval: float = DEFAULT_INTERVAL,
    ) -> None:
        self._queue = queue
        self._shard = shard
        self._interval = max(float(interval), 0.05)
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None
        self._started = wall_time()

    # ------------------------------------------------------------------
    def start(self) -> None:
        self._send(KIND_START)
        self._thread = threading.Thread(
            target=self._run, name=f"repro-monitor-shard-{self._shard}",
            daemon=True,
        )
        self._thread.start()

    def stop(self) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=2.0)
            self._thread = None
        self._send(KIND_DONE)

    # ------------------------------------------------------------------
    def _run(self) -> None:
        while not self._stop.wait(self._interval):
            self._send(KIND_PROGRESS)

    def _send(self, kind: str) -> None:
        registry = _telemetry.ACTIVE
        message = ShardMessage(
            shard=self._shard,
            kind=kind,
            events=(
                registry.peek_counter("solver.events")
                if registry is not None else 0
            ),
            elapsed=wall_time() - self._started,
        )
        try:
            self._queue.put(message)
        except (OSError, EOFError, BrokenPipeError):
            # the parent's manager went away (run aborted); progress is
            # advisory, so drop the datagram and stop sampling
            self._stop.set()


@dataclasses.dataclass
class MonitorHandle:
    """The picklable parcel the pool hands each worker: where to send
    progress (a manager-queue proxy) and how often."""

    queue: Any
    shard: int
    interval: float = DEFAULT_INTERVAL

    def emitter(self) -> ShardEmitter:
        return ShardEmitter(self.queue, self.shard, self.interval)
