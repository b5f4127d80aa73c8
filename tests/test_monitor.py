"""Tests for ``repro.monitor``: live monitoring (strictly out-of-band),
the persistent run ledger, and ``repro report`` regression verdicts."""

import io
import json

import numpy as np
import pytest

from repro import SimulationConfig, build_set, ensemble_iv, sweep_iv
from repro.cli import main
from repro.errors import TelemetryError
from repro.monitor import (
    Ledger,
    RunMonitor,
    build_report,
    fingerprint_circuit,
    fingerprint_workload,
    ledger_session,
    monitor_session,
    read_ledger,
    run_scope,
)
from repro.monitor.render import ProgressRenderer, format_snapshot
from repro.telemetry.exporters import openmetrics_exposition
from repro.telemetry.registry import TelemetryRegistry

CONFIG = SimulationConfig(
    temperature=5.0, solver="adaptive", seed=7, event_hash=True
)
VOLTS = np.linspace(-0.04, 0.04, 6)
JUMPS = 300


def _hashed_sweep(jobs):
    circuit = build_set()
    return sweep_iv(
        circuit, VOLTS, CONFIG, jumps_per_point=JUMPS,
        chunks=4, jobs=jobs,
    )


# ----------------------------------------------------------------------
# the out-of-band contract: monitoring never changes results
# ----------------------------------------------------------------------

class TestMonitoringInvariance:
    def test_results_and_hash_identical_with_monitoring(self):
        baseline = _hashed_sweep(jobs=1)
        assert baseline.event_hash is not None
        for jobs in (1, 2, 4):
            out = io.StringIO()
            with monitor_session(out=out, interval=0.1):
                monitored = _hashed_sweep(jobs=jobs)
            assert np.array_equal(baseline.currents, monitored.currents)
            assert monitored.event_hash == baseline.event_hash
            assert monitored.stats.as_dict() == baseline.stats.as_dict()

    def test_monitor_batch_lifecycle_counts(self):
        mon = RunMonitor(out=io.StringIO())
        assert mon.begin_batch(4, resumed=1) is True
        # nested batches are suppressed (and balanced by end_batch)
        assert mon.begin_batch(2) is False
        mon.end_batch()
        mon.shard_started(1, attempt=1)
        mon.shard_started(2, attempt=1)
        mon.shard_finished(1)
        mon.shard_retried(2)
        snap = mon.snapshot()
        assert snap["total"] == 4
        assert snap["done"] == 2  # 1 resumed + 1 finished
        assert snap["resumed"] == 1
        assert snap["retried"] == 1
        assert snap["in_flight"] == 0
        mon.end_batch()
        mon.close()

    def test_stalled_shard_detection(self):
        mon = RunMonitor(out=io.StringIO(), stall_after=0.0)
        mon.begin_batch(2)
        mon.shard_started(0, attempt=1)
        snap = mon.snapshot()
        assert [shard for shard, _age in snap["stalled"]] == [0]
        assert "stalled" in format_snapshot(snap)
        mon.end_batch()
        mon.close()


# ----------------------------------------------------------------------
# the run ledger
# ----------------------------------------------------------------------

class TestLedger:
    def test_sweep_appends_one_schema_complete_record(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        with ledger_session(path):
            curve = _hashed_sweep(jobs=1)
        records = read_ledger(path)
        assert len(records) == 1
        record = records[0]
        assert record["schema"] == 1
        assert record["kind"] == "sweep_iv"
        assert record["solver"] == "adaptive"
        assert record["jobs"] == 1
        assert record["chunks"] == 4
        assert record["points"] == len(VOLTS)
        assert record["events"] == curve.stats.events
        assert record["events_per_second"] > 0.0
        assert record["event_hash"] == curve.event_hash
        assert record["counters"] == {
            "shards_retried": 0, "pool_rebuilds": 0,
            "cell_hits": 0, "cells_computed": 0,
        }
        assert record["run_id"] and record["fingerprint"]
        assert record["code_version"].startswith("1.")

    def test_cached_rerun_records_no_events(self, tmp_path, capsys):
        from repro.campaign import CampaignStore

        path = tmp_path / "ledger.jsonl"
        store = CampaignStore(tmp_path / "store")
        with ledger_session(path):
            for _ in range(2):
                sweep_iv(
                    build_set(), VOLTS, CONFIG, jumps_per_point=JUMPS,
                    chunks=4, campaign=store,
                )
        first, rerun = read_ledger(path)
        assert first["events"] > 0
        assert first["counters"]["cells_computed"] == 4
        # every cell replayed from the store: nothing was simulated
        assert rerun["counters"]["cell_hits"] == 4
        assert rerun["events"] == 0
        assert rerun["events_per_second"] == 0.0
        assert main(["report", "--ledger", str(path), "--check"]) == 0
        assert "skipped" in capsys.readouterr().out

    def test_nested_invocations_yield_single_record(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        circuit = build_set()
        with ledger_session(path):
            ensemble_iv(
                circuit, VOLTS, replicas=2, config=CONFIG,
                jumps_per_point=JUMPS, jobs=1,
            )
        records = read_ledger(path)
        # the two inner sweep_iv replicas must not append their own rows
        assert [r["kind"] for r in records] == ["ensemble_iv"]
        assert records[0]["replicas"] == 2

    def test_run_scope_is_noop_without_ledger(self):
        with run_scope("sweep_iv") as recorder:
            assert recorder is None

    def test_read_tolerates_torn_final_line(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        ledger = Ledger(path)
        ledger.append({"schema": 1, "run_id": "a", "fingerprint": "f1"})
        ledger.append({"schema": 1, "run_id": "b", "fingerprint": "f2"})
        # simulate a crash mid-append: a torn, unterminated final line
        with open(path, "a") as handle:
            handle.write('{"schema": 1, "run_id": "c", "fing')
        records = read_ledger(path)
        assert [r["run_id"] for r in records] == ["a", "b"]

    def test_read_missing_ledger_is_empty(self, tmp_path):
        assert read_ledger(tmp_path / "absent.jsonl") == []

    def test_fingerprint_workload_identity(self):
        circuit = build_set()
        base = fingerprint_workload(
            circuit, CONFIG, kind="sweep_iv", values=VOLTS,
            jumps_per_point=JUMPS,
        )
        # execution knobs (seed, solver) don't change the workload...
        reseeded = fingerprint_workload(
            circuit, CONFIG.replace(seed=99), kind="sweep_iv",
            values=VOLTS, jumps_per_point=JUMPS,
        )
        assert reseeded == base
        # ...but the physics and the sweep shape do
        hotter = fingerprint_workload(
            circuit, CONFIG.replace(temperature=10.0), kind="sweep_iv",
            values=VOLTS, jumps_per_point=JUMPS,
        )
        assert hotter != base
        shorter = fingerprint_workload(
            circuit, CONFIG, kind="sweep_iv", values=VOLTS[:-1],
            jumps_per_point=JUMPS,
        )
        assert shorter != base
        assert fingerprint_circuit(circuit) == fingerprint_circuit(build_set())

    def test_fingerprint_extra_parts_extend_identity(self):
        circuit = build_set()
        base = fingerprint_workload(
            circuit, CONFIG, kind="campaign", jumps_per_point=JUMPS,
        )
        # an empty extra leaves historical fingerprints unchanged
        assert base == fingerprint_workload(
            circuit, CONFIG, kind="campaign", jumps_per_point=JUMPS,
            extra=(),
        )
        extended = fingerprint_workload(
            circuit, CONFIG, kind="campaign", jumps_per_point=JUMPS,
            extra=("solver=adaptive",),
        )
        assert extended != base


# ----------------------------------------------------------------------
# ledger robustness: concurrent appends, no-$HOME fallback
# ----------------------------------------------------------------------

def _hammer_ledger(path, writer, n):
    ledger = Ledger(path)
    for i in range(n):
        # padding widens the window a buffered writer would tear in
        ledger.append({"writer": writer, "i": i, "pad": "x" * 512})


class TestLedgerRobustness:
    def test_concurrent_appends_interleave_whole_lines(self, tmp_path):
        import multiprocessing

        path = tmp_path / "ledger.jsonl"
        writers, per_writer = 4, 40
        ctx = multiprocessing.get_context("spawn")
        procs = [
            ctx.Process(target=_hammer_ledger, args=(str(path), w, per_writer))
            for w in range(writers)
        ]
        for proc in procs:
            proc.start()
        for proc in procs:
            proc.join(60.0)
            assert proc.exitcode == 0
        # every line must parse — concurrent appends may interleave
        # *lines* but never bytes within a line
        lines = path.read_text().splitlines()
        assert len(lines) == writers * per_writer
        records = [json.loads(line) for line in lines]
        for w in range(writers):
            seen = [r["i"] for r in records if r["writer"] == w]
            assert sorted(seen) == list(range(per_writer))

    def test_default_paths_fall_back_without_home(self, monkeypatch, tmp_path):
        from pathlib import Path as _Path

        from repro.campaign.store import default_campaign_root
        from repro.monitor.ledger import default_ledger_path, repro_cache_dir

        monkeypatch.delenv("REPRO_LEDGER", raising=False)
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        monkeypatch.delenv("REPRO_CAMPAIGN_DIR", raising=False)
        monkeypatch.delenv("HOME", raising=False)

        def _no_home():
            raise RuntimeError("Could not determine home directory.")

        monkeypatch.setattr(_Path, "home", staticmethod(_no_home))
        assert repro_cache_dir() == _Path(".repro")
        assert default_ledger_path() == _Path(".repro") / "ledger.jsonl"
        # the campaign store shares the same resolution (satellite 2)
        assert default_campaign_root() == _Path(".repro") / "campaigns"
        # a degenerate root home gets the same treatment
        monkeypatch.setattr(_Path, "home", staticmethod(lambda: _Path("/")))
        assert repro_cache_dir() == _Path(".repro")
        # ...while a usable home keeps the historical location
        monkeypatch.setattr(
            _Path, "home", staticmethod(lambda: tmp_path / "user")
        )
        assert repro_cache_dir() == tmp_path / "user" / ".cache" / "repro"
        # env overrides beat everything, even with no home
        monkeypatch.setattr(_Path, "home", staticmethod(_no_home))
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        assert repro_cache_dir() == tmp_path / "cache"
        monkeypatch.setenv("REPRO_LEDGER", str(tmp_path / "l.jsonl"))
        assert default_ledger_path() == tmp_path / "l.jsonl"
        monkeypatch.setenv("REPRO_CAMPAIGN_DIR", str(tmp_path / "camp"))
        assert default_campaign_root() == tmp_path / "camp"


# ----------------------------------------------------------------------
# repro report
# ----------------------------------------------------------------------

def _record(run_id, ts, eps, fingerprint="f0", kind="sweep_iv",
            solver="adaptive"):
    return {
        "schema": 1, "run_id": run_id, "ts": ts, "kind": kind,
        "label": "synthetic", "fingerprint": fingerprint, "solver": solver,
        "jobs": 1, "events": int(eps * 2), "events_per_second": eps,
        "wall_seconds": 2.0, "code_version": "1.0.0",
        "counters": {"resume_hits": 0, "shards_retried": 0,
                     "pool_rebuilds": 0},
        "event_hash": None,
    }


class TestReport:
    def test_synthetic_slowdown_is_flagged(self):
        records = [
            _record("a", 1.0, 1000.0),
            _record("b", 2.0, 980.0),
            _record("c", 3.0, 500.0),  # 50% below the median of (a, b)
        ]
        report = build_report(records, threshold=0.2)
        assert report.exit_code == 1
        rows = report.trajectories[0].rows
        assert [r.verdict for r in rows] == ["baseline", "ok", "REGRESSED"]
        assert "REGRESSED" in report.format()

    def test_steady_and_improved_runs_pass(self):
        records = [
            _record("a", 1.0, 1000.0),
            _record("b", 2.0, 950.0),
            _record("c", 3.0, 1500.0),
        ]
        report = build_report(records, threshold=0.2)
        assert report.exit_code == 0
        assert report.trajectories[0].rows[-1].verdict == "improved"

    def test_runs_without_events_are_not_judged(self):
        cached = dict(_record("b", 2.0, 0.0), events=0)
        records = [cached, _record("a", 1.0, 1000.0), _record("c", 3.0, 990.0)]
        rows = build_report(records, threshold=0.2).trajectories[0].rows
        # a run that simulated nothing is neither judged nor a baseline
        assert [r.verdict for r in rows] == ["baseline", "skipped", "ok"]
        assert rows[-1].change == pytest.approx(-0.01)
        only_cached = build_report([dict(cached, ts=0.5), cached])
        assert only_cached.exit_code == 0

    def test_workloads_group_by_fingerprint_and_solver(self):
        records = [
            _record("a", 1.0, 1000.0, solver="adaptive"),
            _record("b", 2.0, 100.0, solver="nonadaptive"),
        ]
        report = build_report(records, threshold=0.2)
        # different solvers are different trajectories: no false verdict
        assert len(report.trajectories) == 2
        assert report.exit_code == 0

    def test_openmetrics_snapshot(self):
        report = build_report([_record("a", 1.0, 1000.0)])
        text = report.as_openmetrics()
        assert 'repro_run_events_per_second{fingerprint="f0"' in text
        assert text.endswith("# EOF\n")

    def test_report_cli_exit_codes(self, tmp_path, capsys):
        path = tmp_path / "ledger.jsonl"
        ledger = Ledger(path)
        for rec in (
            _record("a", 1.0, 1000.0),
            _record("b", 2.0, 400.0),
        ):
            ledger.append(rec)
        # without --check the report is informational (exit 0)
        assert main(["report", "--ledger", str(path)]) == 0
        out = capsys.readouterr().out
        assert "REGRESSED" in out and "1,000" in out
        # --check gates: regression => exit 1
        assert main(["report", "--ledger", str(path), "--check"]) == 1
        capsys.readouterr()
        # JSON output round-trips
        assert main(["report", "--ledger", str(path), "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["regressed"] is True
        assert len(payload["workloads"][0]["runs"]) == 2

    def test_named_missing_ledger_is_an_error(
        self, tmp_path, monkeypatch, capsys
    ):
        missing = tmp_path / "typo.jsonl"
        assert main(["report", "--ledger", str(missing), "--check"]) == 2
        assert str(missing) in capsys.readouterr().err
        # a missing *default* ledger is only an empty history
        monkeypatch.setenv("REPRO_LEDGER", str(missing))
        assert main(["report", "--check"]) == 0
        assert "0 record(s)" in capsys.readouterr().out

    @pytest.mark.parametrize("threshold", [-1.0, 0.0, 1.0, 2.5])
    def test_threshold_outside_unit_interval_rejected(
        self, tmp_path, threshold, capsys
    ):
        with pytest.raises(TelemetryError, match="threshold"):
            build_report([_record("a", 1.0, 1000.0)], threshold=threshold)
        path = tmp_path / "ledger.jsonl"
        Ledger(path).append(_record("a", 1.0, 1000.0))
        argv = ["report", "--ledger", str(path), "--threshold", str(threshold)]
        assert main(argv) == 1
        assert "(0, 1)" in capsys.readouterr().err

    def test_run_cli_populates_ledger(self, tmp_path, deck_file, capsys):
        path = tmp_path / "cli-ledger.jsonl"
        assert main([
            "run", str(deck_file), "--ledger", str(path), "--progress",
        ]) == 0
        capsys.readouterr()
        records = read_ledger(path)
        assert len(records) == 1
        assert records[0]["kind"] == "deck.run"
        assert records[0]["events_per_second"] > 0.0
        # --no-ledger suppresses recording
        assert main(["run", str(deck_file), "--no-ledger"]) == 0
        capsys.readouterr()
        assert len(read_ledger(path)) == 1


@pytest.fixture
def deck_file(tmp_path):
    deck = tmp_path / "probe.deck"
    deck.write_text(
        "junc 1 1 4 1e-6 1e-18\n"
        "junc 2 2 4 1e-6 1e-18\n"
        "cap 3 4 3e-18\n"
        "vdc 1 0.02\nvdc 2 -0.02\nvdc 3 0.0\n"
        "symm 1\n"
        "num j 2\nnum ext 3\nnum nodes 4\n"
        "temp 5\n"
        "record 1 2 2\n"
        "jumps 400 1\n"
        "sweep 2 0.02 0.01\n"
    )
    return deck


# ----------------------------------------------------------------------
# rendering
# ----------------------------------------------------------------------

class TestRendering:
    def test_format_snapshot_core_fields(self):
        line = format_snapshot({
            "total": 8, "done": 3, "in_flight": 2, "retried": 1,
            "resumed": 0, "events": 12345, "events_per_second": 4567.0,
            "eta_seconds": 12.0, "elapsed_seconds": 9.0, "stalled": [],
        })
        assert "3/8 shards" in line
        assert "2 in flight" in line
        assert "12,345 events" in line
        assert "ETA 12s" in line

    def test_plain_renderer_emits_lines_not_control_codes(self):
        out = io.StringIO()
        renderer = ProgressRenderer(out, plain_period=0.0)
        snap = {"total": 2, "done": 1, "in_flight": 1, "retried": 0,
                "resumed": 0, "events": 10, "events_per_second": 5.0,
                "eta_seconds": None, "elapsed_seconds": 2.0, "stalled": []}
        renderer.update(snap, now=1.0)
        renderer.update(snap, now=2.0)  # unchanged: no duplicate line
        renderer.finish(dict(snap, done=2, in_flight=0))
        text = out.getvalue()
        assert "\r" not in text and "\x1b" not in text
        assert text.count("1/2 shards") == 1
        assert "2/2 shards" in text

    def test_openmetrics_exposition_from_registry(self):
        reg = TelemetryRegistry()
        reg.counter("solver.events").add(41)
        reg.gauge("parallel.jobs").set(4.0)
        reg.histogram("span.seconds").observe(1.0)
        reg.histogram("span.seconds").observe(3.0)
        text = openmetrics_exposition(reg.metrics())
        assert "repro_solver_events_total 41" in text
        assert "repro_parallel_jobs 4" in text
        assert "repro_span_seconds_count 2" in text
        assert "repro_span_seconds_std 1" in text
        assert text.endswith("# EOF\n")
