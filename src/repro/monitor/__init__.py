"""repro.monitor — live run monitoring, run ledger, perf reporting.

Three cooperating layers, all strictly out-of-band with respect to the
simulation (results, seeds and dsan event hashes are bit-identical
with monitoring on or off):

* :mod:`repro.monitor.stream` / :mod:`repro.monitor.monitor` — live
  cross-process progress: pooled workers stream their event counts over
  a manager queue to a parent-side :class:`RunMonitor` that renders
  shards done / in flight / retried, aggregate events/second, ETA and
  stalled-shard heartbeat gaps (``repro run --progress``);
* :mod:`repro.monitor.ledger` — the persistent JSONL run ledger every
  ``deck.run`` / ``sweep_iv`` / ``sweep_map`` / ``ensemble_iv``
  invocation appends to while a ledger is installed;
* :mod:`repro.monitor.report` — ``repro report``: perf trajectories
  over the ledger with regression verdicts, JSON and OpenMetrics
  output.
"""

from __future__ import annotations

from repro.monitor.ledger import (
    Ledger,
    RunRecorder,
    active_ledger,
    default_ledger_path,
    fingerprint_circuit,
    fingerprint_workload,
    ledger_session,
    read_ledger,
    repro_cache_dir,
    run_scope,
    set_ledger,
)
from repro.monitor.monitor import (
    RunMonitor,
    current,
    monitor_session,
    set_monitor,
)
from repro.monitor.render import ProgressRenderer, format_snapshot
from repro.monitor.report import (
    DEFAULT_THRESHOLD,
    LedgerReport,
    build_report,
)
from repro.monitor.stream import MonitorHandle, ShardEmitter, ShardMessage

__all__ = [
    "DEFAULT_THRESHOLD",
    "Ledger",
    "LedgerReport",
    "MonitorHandle",
    "ProgressRenderer",
    "RunMonitor",
    "RunRecorder",
    "ShardEmitter",
    "ShardMessage",
    "active_ledger",
    "build_report",
    "current",
    "default_ledger_path",
    "fingerprint_circuit",
    "fingerprint_workload",
    "format_snapshot",
    "ledger_session",
    "monitor_session",
    "read_ledger",
    "repro_cache_dir",
    "run_scope",
    "set_ledger",
    "set_monitor",
]
