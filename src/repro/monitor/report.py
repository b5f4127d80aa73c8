"""Performance-trajectory reporting over the run ledger.

``repro report`` answers "did this PR make us slower?" with machine
checks instead of eyeballs:

* ledger records are grouped by ``(fingerprint, kind, solver)`` — the
  same workload run by the same solver — and ordered by timestamp;
* within each group the **latest** run's events/second is compared
  against the **median of the earlier runs** (median, not best, so one
  lucky fast run doesn't poison the baseline); a drop beyond
  ``threshold`` is an explicit ``REGRESSED`` verdict and ``--check``
  turns any verdict into a nonzero exit for CI;
* a run that simulated no events (a rerun served entirely from the
  campaign store) has no throughput: it is marked ``skipped`` and is
  neither judged nor part of any baseline;
* ``--format openmetrics`` renders the latest snapshot per group as an
  OpenMetrics text exposition — the exact payload the future HTTP
  monitoring service will serve from its ``/metrics`` endpoint.
"""

from __future__ import annotations

import dataclasses
import json
import statistics
from typing import Any

from repro.errors import TelemetryError
from repro.telemetry.clock import iso_utc
from repro.telemetry.exporters import openmetrics_exposition

#: Default tolerated events/second drop before a run is REGRESSED.
DEFAULT_THRESHOLD = 0.2

#: Verdict strings, in increasing severity.
VERDICT_BASELINE = "baseline"
VERDICT_OK = "ok"
VERDICT_IMPROVED = "improved"
VERDICT_REGRESSED = "REGRESSED"
VERDICT_SKIPPED = "skipped"


@dataclasses.dataclass
class RunRow:
    """One ledger record reduced to the trajectory columns."""

    run_id: str
    ts: float
    code_version: str
    jobs: Any
    events: int
    events_per_second: float
    wall_seconds: float
    verdict: str = VERDICT_BASELINE
    change: float | None = None  # fractional eps change vs the baseline


@dataclasses.dataclass
class WorkloadTrajectory:
    """All runs of one ``(fingerprint, kind, solver)`` workload."""

    fingerprint: str
    kind: str
    solver: str
    label: str
    rows: list[RunRow]

    @property
    def regressed(self) -> bool:
        return any(row.verdict == VERDICT_REGRESSED for row in self.rows)

    @property
    def latest(self) -> RunRow:
        return self.rows[-1]


@dataclasses.dataclass
class LedgerReport:
    """Everything ``repro report`` renders."""

    ledger_path: str
    records: int
    trajectories: list[WorkloadTrajectory]
    threshold: float

    @property
    def regressions(self) -> list[WorkloadTrajectory]:
        return [t for t in self.trajectories if t.regressed]

    @property
    def exit_code(self) -> int:
        return 1 if self.regressions else 0

    # ------------------------------------------------------------------
    def format(self) -> str:
        lines = [
            f"perf trajectory ({self.records} record(s) in "
            f"{self.ledger_path})"
        ]
        if not self.trajectories:
            lines.append("  (no intact ledger records)")
        for trajectory in self.trajectories:
            lines.append("")
            lines.append(
                f"workload {trajectory.fingerprint[:12]} · "
                f"{trajectory.kind} · solver={trajectory.solver}"
                + (f" · {trajectory.label}" if trajectory.label else "")
            )
            lines.append(
                f"  {'when':20s} {'code':14s} {'jobs':>4s} {'events':>10s} "
                f"{'ev/s':>12s} {'wall':>9s}  verdict"
            )
            for row in trajectory.rows:
                change = (
                    f" ({row.change:+.1%})" if row.change is not None else ""
                )
                lines.append(
                    f"  {iso_utc(row.ts):20s} {row.code_version[:14]:14s} "
                    f"{str(row.jobs):>4s} {row.events:>10,d} "
                    f"{row.events_per_second:>12,.1f} "
                    f"{row.wall_seconds:>8.2f}s  {row.verdict}{change}"
                )
        lines.append("")
        if self.regressions:
            names = ", ".join(
                f"{t.fingerprint[:12]}/{t.solver}" for t in self.regressions
            )
            lines.append(
                f"verdict: {len(self.regressions)} workload(s) regressed "
                f"beyond {self.threshold:.0%}: {names}"
            )
        else:
            lines.append(
                f"verdict: no events/second regression beyond "
                f"{self.threshold:.0%}"
            )
        return "\n".join(lines)

    def as_json(self) -> str:
        payload = {
            "ledger": self.ledger_path,
            "records": self.records,
            "threshold": self.threshold,
            "regressed": bool(self.regressions),
            "workloads": [
                {
                    "fingerprint": t.fingerprint,
                    "kind": t.kind,
                    "solver": t.solver,
                    "label": t.label,
                    "regressed": t.regressed,
                    "runs": [dataclasses.asdict(row) for row in t.rows],
                }
                for t in self.trajectories
            ],
        }
        return json.dumps(payload, indent=2, sort_keys=True)

    def as_openmetrics(self) -> str:
        """Latest snapshot per workload as one OpenMetrics exposition."""
        chunks: list[str] = []
        for trajectory in self.trajectories:
            latest = trajectory.latest
            metrics: dict[str, dict[str, Any]] = {
                "counters": {"run.events": latest.events},
                "gauges": {
                    "run.events_per_second": latest.events_per_second,
                    "run.wall_seconds": latest.wall_seconds,
                    "run.regressed": 1.0 if trajectory.regressed else 0.0,
                },
                "histograms": {},
            }
            chunks.append(openmetrics_exposition(
                metrics,
                labels={
                    "fingerprint": trajectory.fingerprint,
                    "kind": trajectory.kind,
                    "solver": trajectory.solver,
                },
                terminate=False,
            ))
        return "".join(chunks) + "# EOF\n"


# ----------------------------------------------------------------------
# building the report
# ----------------------------------------------------------------------

def _judge(rows: list[RunRow], threshold: float) -> None:
    """Assign verdicts in place: each run that simulated events is
    compared against the median events/second of the *earlier* such
    runs; the first of them is the baseline.  A run without events is
    skipped."""
    earlier: list[float] = []
    for row in rows:
        if row.events <= 0:
            row.verdict = VERDICT_SKIPPED
            continue
        if not earlier:
            row.verdict = VERDICT_BASELINE
            earlier.append(row.events_per_second)
            continue
        baseline = statistics.median(earlier)
        earlier.append(row.events_per_second)
        if baseline <= 0.0:
            row.verdict = VERDICT_OK
            continue
        change = row.events_per_second / baseline - 1.0
        row.change = change
        if change < -threshold:
            row.verdict = VERDICT_REGRESSED
        elif change > threshold:
            row.verdict = VERDICT_IMPROVED
        else:
            row.verdict = VERDICT_OK


def build_report(
    records: list[dict[str, Any]],
    *,
    ledger_path: str = "",
    threshold: float = DEFAULT_THRESHOLD,
) -> LedgerReport:
    """Group ledger records into judged workload trajectories."""
    if not 0.0 < threshold < 1.0:
        raise TelemetryError(
            f"regression threshold must lie in (0, 1), got {threshold!r}"
        )
    groups: dict[tuple[str, str, str], list[dict[str, Any]]] = {}
    for record in records:
        fingerprint = str(record.get("fingerprint", ""))
        if not fingerprint:
            continue
        key = (
            fingerprint,
            str(record.get("kind", "")),
            str(record.get("solver", "")),
        )
        groups.setdefault(key, []).append(record)
    trajectories: list[WorkloadTrajectory] = []
    for (fingerprint, kind, solver), members in sorted(groups.items()):
        members.sort(key=lambda r: float(r.get("ts", 0.0)))
        rows = [
            RunRow(
                run_id=str(member.get("run_id", "")),
                ts=float(member.get("ts", 0.0)),
                code_version=str(member.get("code_version", "")),
                jobs=member.get("jobs"),
                events=int(member.get("events", 0)),
                events_per_second=float(member.get("events_per_second", 0.0)),
                wall_seconds=float(member.get("wall_seconds", 0.0)),
            )
            for member in members
        ]
        _judge(rows, threshold)
        trajectories.append(WorkloadTrajectory(
            fingerprint=fingerprint,
            kind=kind,
            solver=solver,
            label=str(members[-1].get("label", "")),
            rows=rows,
        ))
    return LedgerReport(
        ledger_path=ledger_path,
        records=len(records),
        trajectories=trajectories,
        threshold=threshold,
    )
