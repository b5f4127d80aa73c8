"""Unit tests for ``repro.telemetry``: registry, spans, exporters."""

import json
import time

import pytest

from repro.errors import TelemetryError
from repro.telemetry import (
    TelemetryRegistry,
    chrome_trace,
    phase_timings,
    summary,
    write_jsonl,
    write_trace,
)
from repro.telemetry import registry as telemetry
from repro.telemetry.clock import Stopwatch, time_call, wall_time


@pytest.fixture(autouse=True)
def _telemetry_disabled():
    """Every test starts and ends with telemetry off."""
    telemetry.disable()
    yield
    telemetry.disable()


class TestClock:
    def test_wall_time_is_monotonic(self):
        a = wall_time()
        b = wall_time()
        assert b >= a

    def test_stopwatch_elapsed_grows(self):
        watch = Stopwatch()
        first = watch.elapsed()
        second = watch.elapsed()
        assert 0.0 <= first <= second
        watch.restart()
        assert watch.elapsed() < second + 1.0

    def test_time_call_returns_duration_and_result(self):
        seconds, value = time_call(lambda x: x * 2, 21)
        assert value == 42
        assert seconds >= 0.0


class TestMetrics:
    def test_counter_accumulates(self):
        reg = TelemetryRegistry()
        reg.counter("events").add()
        reg.counter("events").add(4)
        assert reg.counter("events").value == 5

    def test_counter_rejects_negative(self):
        reg = TelemetryRegistry()
        with pytest.raises(TelemetryError):
            reg.counter("events").add(-1)

    def test_gauge_last_value_wins(self):
        reg = TelemetryRegistry()
        reg.gauge("g").set(1.5)
        reg.gauge("g").set(2.5)
        assert reg.gauge("g").value == pytest.approx(2.5)

    def test_histogram_moments(self):
        reg = TelemetryRegistry()
        hist = reg.histogram("dt")
        for value in (1.0, 2.0, 3.0):
            hist.observe(value)
        assert hist.count == 3
        assert hist.mean == pytest.approx(2.0)
        # population variance of (1, 2, 3) is 2/3; m2 = count * variance
        assert hist.as_dict() == pytest.approx(
            {
                "count": 3.0, "total": 6.0, "mean": 2.0,
                "min": 1.0, "max": 3.0,
                "m2": 2.0, "std": (2.0 / 3.0) ** 0.5,
            }
        )

    def test_empty_histogram_is_well_defined(self):
        hist = TelemetryRegistry().histogram("empty")
        assert hist.mean == 0.0
        assert hist.as_dict()["min"] == 0.0

    def test_metrics_snapshot_shape(self):
        reg = TelemetryRegistry()
        reg.counter("c").add(2)
        reg.gauge("g").set(7.0)
        reg.histogram("h").observe(1.0)
        snap = reg.metrics()
        assert snap["counters"] == {"c": 2}
        assert snap["gauges"] == {"g": 7.0}
        assert snap["histograms"]["h"]["count"] == 1.0


class TestSpans:
    def test_span_records_complete_event(self):
        reg = TelemetryRegistry()
        with reg.span("work", category="test", size=3) as live:
            live.set("extra", True)
        (event,) = reg.events
        assert event.name == "work"
        assert event.phase == "X"
        assert event.dur >= 0.0
        assert event.args == {"size": 3, "extra": True}
        assert event.category == "test"

    def test_nested_spans_order(self):
        reg = TelemetryRegistry()
        with reg.span("outer"):
            with reg.span("inner"):
                pass
        names = [event.name for event in reg.events]
        assert names == ["inner", "outer"]  # inner exits first
        inner, outer = reg.events
        assert outer.ts <= inner.ts
        assert outer.ts + outer.dur >= inner.ts + inner.dur

    def test_trace_buffer_bound(self):
        reg = TelemetryRegistry(max_trace_events=3)
        for i in range(10):
            with reg.span("tick", i=i):
                pass
        assert len(reg.events) == 3
        assert reg.dropped_events == 7

    def test_negative_bound_rejected(self):
        with pytest.raises(TelemetryError):
            TelemetryRegistry(max_trace_events=-1)

    def test_metrics_only_mode_records_no_events(self):
        reg = TelemetryRegistry(trace=False)
        with reg.span("work"):
            with reg.span("tick"):
                pass
        reg.counter("c").add()
        assert reg.events == []
        assert reg.counter("c").value == 1


class TestActivation:
    def test_disabled_by_default(self):
        assert telemetry.get_registry() is None

    def test_disabled_span_is_shared_noop(self):
        first = telemetry.span("a", key=1)
        second = telemetry.span("b")
        assert first is second  # the singleton: no allocation when off
        with first as entered:
            entered.set("ignored", 0)  # must be a silent no-op

    def test_enable_disable(self):
        reg = telemetry.enable()
        try:
            assert telemetry.get_registry() is reg
            with telemetry.span("work"):
                pass
            assert [event.name for event in reg.events] == ["work"]
        finally:
            telemetry.disable()
        assert telemetry.get_registry() is None

    def test_session_restores_previous(self):
        outer = telemetry.enable()
        try:
            with telemetry.session() as inner:
                assert telemetry.get_registry() is inner
                assert inner is not outer
            assert telemetry.get_registry() is outer
        finally:
            telemetry.disable()

    def test_session_restores_on_error(self):
        with pytest.raises(RuntimeError):
            with telemetry.session():
                raise RuntimeError("boom")
        assert telemetry.get_registry() is None

    def test_disabled_overhead_is_negligible(self):
        """The zero-cost-when-off contract, measured.

        A disabled ``span()`` call is one attribute load, one ``is
        None`` test and a constant return — it must cost far less than
        a microsecond-scale tunnel event.  The bound is deliberately
        loose (CI machines are noisy) but would still catch an
        accidental allocation or format call on the disabled path.
        """
        span = telemetry.span
        n = 50_000
        start = time.perf_counter()
        for _ in range(n):
            with span("hot"):
                pass
        per_call = (time.perf_counter() - start) / n
        assert per_call < 20e-6  # 20 us: ~100x a realistic no-op cost


class TestExporters:
    def _populated(self) -> TelemetryRegistry:
        reg = TelemetryRegistry()
        with reg.span("phase.a", category="test", n=1):
            with reg.span("tick", junction=2):
                pass
        with reg.span("phase.a"):
            pass
        with reg.span("phase.b"):
            pass
        reg.counter("solver.events").add(3)
        reg.histogram("span.seconds").observe(1e-9)
        return reg

    def test_chrome_trace_shape(self):
        payload = chrome_trace(self._populated())
        events = payload["traceEvents"]
        assert len(events) == 4
        for record in events:
            assert set(record) >= {"name", "ph", "ts", "pid", "tid",
                                   "cat", "args"}
            assert record["ph"] == "X"
            assert record["dur"] >= 0.0
        metrics = payload["otherData"]["metrics"]
        assert metrics["counters"]["solver.events"] == 3
        # the whole payload must be valid JSON
        json.loads(json.dumps(payload))

    def test_write_jsonl(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        count = write_jsonl(self._populated(), path)
        lines = path.read_text().strip().splitlines()
        assert count == len(lines) == 4
        records = [json.loads(line) for line in lines]
        assert {record["name"] for record in records} == {
            "phase.a", "phase.b", "tick"
        }

    def test_write_trace_auto_by_suffix(self, tmp_path):
        reg = self._populated()
        jsonl = tmp_path / "trace.jsonl"
        chrome = tmp_path / "trace.json"
        write_trace(reg, jsonl)
        write_trace(reg, chrome)
        assert json.loads(jsonl.read_text().splitlines()[0])["name"]
        assert "traceEvents" in json.loads(chrome.read_text())

    def test_write_trace_rejects_unknown_format(self, tmp_path):
        with pytest.raises(TelemetryError):
            write_trace(self._populated(), tmp_path / "t.json", fmt="xml")

    def test_phase_timings_aggregate(self):
        timings = {t.name: t for t in phase_timings(self._populated())}
        assert timings["phase.a"].count == 2
        assert timings["phase.b"].count == 1
        assert timings["phase.a"].total_seconds >= 0.0
        assert timings["phase.a"].mean_seconds == pytest.approx(
            timings["phase.a"].total_seconds / 2
        )

    def test_summary_text(self):
        text = summary(self._populated())
        assert "phase wall time" in text
        assert "phase.a" in text
        assert "solver.events" in text
        assert "span.seconds" in text

    def test_summary_empty_registry(self):
        assert "no data" in summary(TelemetryRegistry())

    def test_summary_reports_dropped_events(self):
        reg = TelemetryRegistry(max_trace_events=1)
        for name in ("a", "b"):
            with reg.span(name):
                pass
        assert "dropped" in summary(reg)

    def test_numpy_scalars_serialise(self, tmp_path):
        np = pytest.importorskip("numpy")
        reg = TelemetryRegistry()
        with reg.span("tick", dt=np.float64(1.5), junction=np.int64(3)):
            pass
        path = tmp_path / "trace.json"
        write_trace(reg, path)
        record = json.loads(path.read_text())["traceEvents"][0]
        assert record["args"] == {"dt": 1.5, "junction": 3}
