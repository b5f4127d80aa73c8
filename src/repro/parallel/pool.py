"""Process-pool execution of independent simulation shards.

The sweep layer decomposes its work into *shards* — picklable payloads
plus a module-level worker function — and hands them here.  The
contract that makes parallelism safe for a Monte Carlo code:

* every shard carries its own spawned seed (see
  :mod:`repro.parallel.seeds`), so results are bit-identical for any
  ``jobs`` and any scheduling order;
* results are returned in shard order, regardless of completion order;
* ``jobs=1`` runs the shards inline in this process — no pool, no
  pickling, and telemetry flows straight into the active registry, so
  the serial path is byte-identical to pre-parallel behaviour;
* with ``jobs > 1`` and an active telemetry registry in the parent,
  each worker runs its shard under a metrics-only registry and ships
  the snapshot back; the parent folds the snapshots in shard order via
  :meth:`~repro.telemetry.registry.TelemetryRegistry.merge_snapshot`.
  Trace events are per-process and stay in the worker.

Since the recovery layer (:mod:`repro.recovery`) the pool is also
*fault tolerant*.  An :class:`~repro.recovery.ExecutionPolicy` gives
each shard a bounded retry budget with capped deterministic backoff
and an optional wall-clock deadline; a dead worker
(:class:`~concurrent.futures.process.BrokenProcessPool`) or a
timed-out shard triggers a pool rebuild, and after
``max_pool_rebuilds`` rebuilds the remaining shards degrade to inline
execution.  Because a retried shard re-runs with the *same* payload —
and therefore the same spawned seed — recovery never changes results:
arrays and the fold-order combined event hash are identical to a
fault-free run.  One caveat is attribution: when a worker dies the
executor fails *every* in-flight future, so each one is charged an
attempt; exhaustion tests should pin the culprit with a single-shard
layout.

Where a finished shard's result is kept is the cache's business: with
a :class:`ShardCache` (the campaign store, :mod:`repro.campaign`) each
shard is looked up before it runs and persisted as it finishes, so a
rerun of an interrupted batch replays the finished shards and executes
only the remainder.

Worker functions and payloads must be picklable: module-level
functions, dataclasses, numpy arrays.  Closures (e.g. a lambda bias
setter) cannot cross the process boundary — use a module-level
callable class instead, as :func:`repro.core.sweep.symmetric_bias`
does.
"""

from __future__ import annotations

import collections
import concurrent.futures
import os
import time
from concurrent.futures.process import BrokenProcessPool
from typing import Any, Callable, Protocol, Sequence, TypeVar

from repro.dsan import runtime as _dsan
from repro.errors import RecoveryError, SimulationError
from repro.monitor import monitor as _monitor
from repro.monitor.stream import MonitorHandle
from repro.recovery import faults as _faults
from repro.recovery.policy import ExecutionPolicy
from repro.telemetry import registry as _telemetry
from repro.telemetry.clock import wall_time

_P = TypeVar("_P")
_R = TypeVar("_R")

#: scheduler wait quantum (seconds) for the resilient pooled loop
_TICK = 0.05

_DEFAULT_POLICY = ExecutionPolicy()

_Snapshot = dict[str, dict[str, Any]]


class ShardCacheSession(Protocol):
    """One batch's binding to a cross-run result cache."""

    def hits(self) -> dict[int, Any]:
        """Previously computed results, keyed by shard index."""
        ...

    def record(self, shard: int, result: Any) -> None:
        """Persist one freshly computed shard result."""
        ...


class ShardCache(Protocol):
    """A content-addressed cross-run result cache (duck-typed so this
    module never imports :mod:`repro.campaign`; see
    :class:`repro.campaign.CampaignStore` for the implementation)."""

    def begin(
        self, worker: Callable[..., Any], payloads: list[Any]
    ) -> ShardCacheSession: ...


def resolve_jobs(jobs: int | None) -> int:
    """Normalise a ``--jobs`` value: ``None``/``0`` means all cores."""
    if jobs is None or jobs == 0:
        return os.cpu_count() or 1
    if jobs < 1:
        raise SimulationError(f"jobs must be >= 1 (or 0 for all cores), got {jobs}")
    return jobs


def _shard_entry(
    worker: Callable[[_P], _R],
    payload: _P,
    collect_metrics: bool,
    dsan_check: bool = False,
    fault: _faults.FaultSpec | None = None,
    monitor: MonitorHandle | None = None,
) -> tuple[_R, _Snapshot | None, list[str] | None]:
    """Subprocess entry: run one shard, optionally under a local
    metrics-only telemetry session whose snapshot rides back with the
    result.

    With ``dsan_check`` the worker fingerprints its process-global
    state (global RNGs, telemetry registry) before and after the shard;
    the names of any slots the shard mutated ride back as the third
    element for the parent to report.  ``fault`` is the test-only
    misbehaviour staged for this attempt, performed before the real
    worker runs.  ``monitor`` is the picklable progress channel from
    :meth:`repro.monitor.RunMonitor.worker_channel`; while the shard
    runs, a daemon thread samples the worker-local registry and streams
    advisory datagrams to the parent — strictly read-only, so the
    result (and the dsan fingerprints bracketing the shard) are
    bit-identical with or without it.
    """
    if fault is not None:
        _faults.perform(fault)
    before = _dsan.state_fingerprint() if dsan_check else None
    if not collect_metrics and monitor is None:
        value, metrics = worker(payload), None
    else:
        # a metrics-only session gives the emitter something to sample
        # even when the parent has no registry of its own
        with _telemetry.session(trace=False) as reg:
            emitter = monitor.emitter() if monitor is not None else None
            if emitter is not None:
                emitter.start()
            try:
                value = worker(payload)
            finally:
                if emitter is not None:
                    emitter.stop()
        metrics = reg.metrics() if collect_metrics else None
    leaks: list[str] | None = None
    if before is not None:
        leaks = _dsan.diff_fingerprints(before, _dsan.state_fingerprint())
    return value, metrics, leaks


def _run_inline(
    worker: Callable[[_P], _R],
    items: list[_P],
    indices: Sequence[int],
    policy: ExecutionPolicy,
    plan: _faults.FaultPlan | None,
    session: ShardCacheSession | None,
    dsan_check: bool,
    results: dict[int, _R],
    start_attempts: dict[int, int] | None = None,
    mon: _monitor.RunMonitor | None = None,
) -> int:
    """Run ``indices`` in this process with the retry policy applied.

    Fills ``results`` (and the cache ``session``) per shard;
    returns how many retries were charged.  With ``retry_raised`` off a
    first-attempt exception propagates unchanged — the historical
    inline contract.  ``start_attempts`` carries the attempts already
    charged to each shard when the pooled scheduler degrades to inline
    execution, so the retry budget (and any staged faults keyed by
    attempt number) stay consistent across the transition.
    """
    retried = 0
    leaked: list[tuple[int, list[str]]] = []
    for index in indices:
        attempt = start_attempts.get(index, 0) if start_attempts else 0
        first = attempt == 0
        while True:
            attempt += 1
            if attempt > 1:
                time.sleep(policy.backoff_delay(attempt))
            spec = plan.spec_for(index, attempt) if plan is not None else None
            before = _dsan.state_fingerprint() if dsan_check else None
            if mon is not None:
                mon.shard_started(index, attempt)
            try:
                if spec is not None:
                    _faults.perform(spec, inline=True)
                value = worker(items[index])
            except Exception as exc:  # repro: allow[REPRO001] any worker exception feeds the retry policy
                if policy.retry_raised and attempt < policy.max_attempts:
                    retried += 1
                    if mon is not None:
                        mon.shard_retried(index)
                    continue
                if policy.retry_raised or not first:
                    raise RecoveryError(
                        f"shard #{index} failed after {attempt} attempt(s): "
                        f"{type(exc).__name__}: {exc}",
                        shard=index,
                        attempts=attempt,
                    ) from exc
                raise
            if before is not None:
                changed = _dsan.diff_fingerprints(
                    before, _dsan.state_fingerprint()
                )
                if changed:
                    leaked.append((index, changed))
            results[index] = value
            if session is not None:
                session.record(index, value)
            if mon is not None:
                mon.shard_finished(index)
            break
    _dsan.raise_state_leaks(leaked)
    return retried


def _run_pooled(
    worker: Callable[[_P], _R],
    items: list[_P],
    indices: Sequence[int],
    jobs: int,
    policy: ExecutionPolicy,
    plan: _faults.FaultPlan | None,
    session: ShardCacheSession | None,
    dsan_check: bool,
    collect: bool,
    results: dict[int, _R],
    mon: _monitor.RunMonitor | None = None,
) -> tuple[
    dict[int, _Snapshot | None],
    list[tuple[int, list[str]]],
    int,
    int,
    dict[int, int],
]:
    """The resilient pooled scheduler.

    Keeps at most ``min(jobs, len(indices))`` shards in flight (so a
    submission-time deadline approximates a start-time deadline),
    charges attempts, rebuilds the pool on breakage or timeout, and
    stops early — returning the still-unfinished indices with their
    charged attempts — when the rebuild budget is exhausted and inline
    degradation is allowed.  A shard that raises past the retry policy
    stops further submissions; the shards already in flight finish
    (and reach the cache) before its exception is re-raised.
    """
    snapshots: dict[int, _Snapshot | None] = {}
    shard_leaks: list[tuple[int, list[str]]] = []
    attempts: dict[int, int] = dict.fromkeys(indices, 0)
    queue: collections.deque[int] = collections.deque(indices)
    retried = 0
    rebuilds = 0
    max_workers = min(jobs, len(indices))
    pool = concurrent.futures.ProcessPoolExecutor(max_workers=max_workers)
    inflight: dict[concurrent.futures.Future[Any], tuple[int, float | None]] = {}

    def submit_one(index: int) -> bool:
        attempts[index] += 1
        if attempts[index] > 1:
            time.sleep(policy.backoff_delay(attempts[index]))
        spec = plan.spec_for(index, attempts[index]) if plan is not None else None
        deadline = (
            wall_time() + policy.shard_timeout
            if policy.shard_timeout is not None
            else None
        )
        handle = mon.worker_channel(index) if mon is not None else None
        try:
            future = pool.submit(
                _shard_entry, worker, items[index], collect, dsan_check,
                spec, handle,
            )
        except BrokenProcessPool:
            # the pool died between completions; uncharge and rebuild
            attempts[index] -= 1
            queue.appendleft(index)
            return False
        inflight[future] = (index, deadline)
        if mon is not None:
            mon.shard_started(index, attempts[index])
        return True

    def exhaust(index: int, why: str, cause: BaseException | None) -> None:
        raise RecoveryError(
            f"shard #{index} failed after {attempts[index]} attempt(s): {why}",
            shard=index,
            attempts=attempts[index],
        ) from cause

    # the first shard exception that ends the batch, raised once the
    # shards still in flight have finished
    failure: tuple[int, Exception] | None = None

    def requeue_untouched() -> None:
        # the pool is being torn down: shards still in flight were
        # (probably) innocent — requeue them without charging an attempt
        for future, (index, _deadline) in inflight.items():
            future.cancel()
            attempts[index] -= 1
            queue.append(index)
        inflight.clear()

    try:
        while (queue and failure is None) or inflight:
            pool_ok = True
            while (
                queue and failure is None
                and len(inflight) < max_workers and pool_ok
            ):
                pool_ok = submit_one(queue.popleft())
            done, _pending = concurrent.futures.wait(
                list(inflight),
                timeout=_TICK,
                return_when=concurrent.futures.FIRST_COMPLETED,
            )
            broken = not pool_ok
            for future in done:
                index, _deadline = inflight.pop(future)
                try:
                    value, metrics, leaks = future.result()
                except BrokenProcessPool as exc:
                    # a worker died; the executor fails every in-flight
                    # future, so attribution is coarse — each one is
                    # charged an attempt and retried or exhausted
                    broken = True
                    if attempts[index] < policy.max_attempts:
                        retried += 1
                        if mon is not None:
                            mon.shard_retried(index)
                        queue.append(index)
                    else:
                        exhaust(index, "worker process died", exc)
                except concurrent.futures.CancelledError:
                    attempts[index] -= 1
                    queue.append(index)
                except Exception as exc:  # repro: allow[REPRO001] any worker exception feeds the retry policy
                    if policy.retry_raised and attempts[index] < policy.max_attempts:
                        retried += 1
                        if mon is not None:
                            mon.shard_retried(index)
                        queue.append(index)
                    elif failure is None:
                        failure = (index, exc)
                else:
                    results[index] = value
                    snapshots[index] = metrics
                    if leaks:
                        shard_leaks.append((index, leaks))
                    if session is not None:
                        session.record(index, value)
                    if mon is not None:
                        mon.shard_finished(index)
            if policy.shard_timeout is not None:
                now = wall_time()
                expired = [
                    future
                    for future, (_index, deadline) in inflight.items()
                    if deadline is not None and now >= deadline
                ]
                for future in expired:
                    index, _deadline = inflight.pop(future)
                    # a running future cannot be stopped; the rebuild
                    # below reclaims its worker
                    future.cancel()
                    broken = True
                    if attempts[index] < policy.max_attempts:
                        retried += 1
                        if mon is not None:
                            mon.shard_retried(index)
                        queue.append(index)
                    else:
                        exhaust(
                            index,
                            f"timed out after {policy.shard_timeout:g}s",
                            None,
                        )
            if broken:
                requeue_untouched()
                pool.shutdown(wait=False, cancel_futures=True)
                rebuilds += 1
                if rebuilds > policy.max_pool_rebuilds:
                    if policy.inline_fallback:
                        break  # degrade: remaining shards run inline
                    raise RecoveryError(
                        f"worker pool broke {rebuilds} time(s) "
                        f"(max_pool_rebuilds={policy.max_pool_rebuilds}) and "
                        "inline fallback is disabled"
                    )
                pool = concurrent.futures.ProcessPoolExecutor(
                    max_workers=max_workers
                )
    finally:
        pool.shutdown(wait=False, cancel_futures=True)
    if failure is not None:
        failed, error = failure
        if policy.retry_raised:
            exhaust(failed, f"worker raised {type(error).__name__}: {error}", error)
        raise error
    leftover = {index: attempts[index] for index in sorted(set(queue))}
    return snapshots, shard_leaks, retried, rebuilds, leftover


def execute_shards(
    worker: Callable[[_P], _R],
    payloads: Sequence[_P],
    jobs: int | None = 1,
    *,
    policy: ExecutionPolicy | None = None,
    cache: ShardCache | None = None,
) -> list[_R]:
    """Run ``worker`` over every payload; results come back in order.

    ``jobs=1`` executes inline (the serial path); ``jobs>1`` fans the
    shards out over a :class:`concurrent.futures.ProcessPoolExecutor`
    with at most ``min(jobs, len(payloads))`` workers.  Exceptions
    raised by a shard propagate to the caller unchanged under the
    default policy; a custom :class:`~repro.recovery.ExecutionPolicy`
    adds bounded retry, per-shard timeouts and inline degradation,
    surfacing exhaustion as :class:`~repro.errors.RecoveryError`.

    Recovery activity is visible as telemetry counters:
    ``recovery.shards_retried`` and ``recovery.pool_rebuilds`` (emitted
    only when nonzero).

    With ``cache`` (a :class:`ShardCache`, e.g. a campaign store
    binding) every shard is first looked up in a durable *cross-run*
    store: hits are replayed without any simulation, and each freshly
    computed result is persisted as it lands — so an interrupted batch
    loses at most the shards in flight, and its rerun (or a run of an
    overlapping batch) computes only the missing cells.  Cache activity
    is emitted as the ``campaign.cell_hits`` /
    ``campaign.cells_computed`` counters (always, when a cache is
    present, so "0 computed" is an observable fact).
    """
    items = list(payloads)
    jobs = resolve_jobs(jobs)
    pol = policy if policy is not None else _DEFAULT_POLICY
    plan = _faults.current_plan()
    parent = _telemetry.ACTIVE
    dsan_check = _dsan.active()
    if dsan_check:
        # verify the pool contract even on paths that never pickle:
        # the worker must be a plain module-level function and every
        # payload must survive a pickle round-trip
        _dsan.verify_worker(worker)
        for index, payload in enumerate(items):
            _dsan.verify_payload(payload, index)
    results: dict[int, _R] = {}
    sink: ShardCacheSession | None = None
    if cache is not None:
        sink = cache.begin(worker, items)
        results.update(sink.hits())
    cached = len(results)
    remaining = [index for index in range(len(items)) if index not in results]
    mon = _monitor.current()
    # only the outermost batch of a run is monitored (an inline
    # ensemble replica re-enters the pool for its inner sweep); nested
    # begin_batch calls return False but still need their end_batch
    live = mon if mon is not None and mon.begin_batch(
        len(items), resumed=cached
    ) else None
    batch_open = mon is not None
    try:
        with _telemetry.span(
            "parallel.execute", category="parallel", shards=len(items), jobs=jobs,
        ):
            retried = 0
            rebuilds = 0
            if jobs == 1 or len(remaining) <= 1:
                retried = _run_inline(
                    worker, items, remaining, pol, plan, sink, dsan_check,
                    results, mon=live,
                )
                if mon is not None and batch_open:
                    mon.end_batch()
                    batch_open = False
            else:
                collect = parent is not None
                snapshots, shard_leaks, retried, rebuilds, leftover = _run_pooled(
                    worker, items, remaining, jobs, pol, plan, sink,
                    dsan_check, collect, results, mon=live,
                )
                if leftover:
                    retried += _run_inline(
                        worker, items, sorted(leftover), pol, plan, sink,
                        dsan_check, results, start_attempts=leftover, mon=live,
                    )
                _dsan.raise_state_leaks(sorted(shard_leaks))
                if mon is not None and batch_open:
                    # close the batch before folding snapshots into the
                    # parent registry: the monitor already counted the
                    # streamed shard events, and the fold would double
                    # them in the terminal summary
                    mon.end_batch()
                    batch_open = False
                if parent is not None:
                    # fold in shard order so the merged registry is
                    # deterministic whatever the completion order was
                    for index in sorted(snapshots):
                        metrics = snapshots[index]
                        if metrics is not None:
                            parent.merge_snapshot(metrics, shard=index)
                    parent.counter("parallel.shards").add(len(items))
                    parent.gauge("parallel.jobs").set(min(jobs, len(remaining)))
            if parent is not None:
                if retried:
                    parent.counter("recovery.shards_retried").add(retried)
                if rebuilds:
                    parent.counter("recovery.pool_rebuilds").add(rebuilds)
                if cache is not None:
                    # always emitted while a cache is bound, so a fully
                    # cached batch observably reports "0 computed"
                    parent.counter("campaign.cell_hits").add(cached)
                    parent.counter("campaign.cells_computed").add(
                        len(remaining)
                    )
    finally:
        if mon is not None and batch_open:
            mon.end_batch()
    return [results[index] for index in range(len(items))]
