"""Tests for the ``python -m repro`` command-line interface."""

from pathlib import Path

import pytest

from repro.cli import main

DATA = Path(__file__).parent / "data"

DECK = """
junc 1 1 3 1e-6 1e-18
junc 2 2 3 1e-6 1e-18
cap 4 3 3e-18
vdc 1 0.02
vdc 2 -0.02
vdc 4 0.0
temp 5
record 1 2 1
jumps 2000
sweep 1 0.02 0.02
symm 2
"""


@pytest.fixture
def deck_file(tmp_path):
    path = tmp_path / "set.deck"
    path.write_text(DECK)
    return path


class TestInfo:
    def test_reports_circuit_stats(self, deck_file, capsys):
        assert main(["info", str(deck_file)]) == 0
        out = capsys.readouterr().out
        assert "junctions:      2" in out
        assert "islands:        1" in out
        assert "temperature:    5.0 K" in out

    def test_reports_components_and_cinv_store(self, deck_file, tmp_path, capsys):
        assert main(["info", str(deck_file)]) == 0
        out = capsys.readouterr().out
        assert "components:     1, the largest 1 island\n" in out
        assert "C^-1 store:     8 bytes (0.0 MiB, dense)" in out
        # a second SET on its own nodes is a second capacitive component
        two = tmp_path / "two_sets.deck"
        two.write_text(DECK + "junc 3 5 7 1e-6 1e-18\njunc 4 6 7 1e-6 1e-18\n"
                       "cap 8 7 3e-18\nvdc 5 0.02\nvdc 6 -0.02\nvdc 8 0.0\n")
        assert main(["info", str(two)]) == 0
        out = capsys.readouterr().out
        assert "islands:        2" in out
        assert "components:     2, the largest 1 island\n" in out
        assert "C^-1 store:     32 bytes (0.0 MiB, dense)" in out

    def test_missing_file_is_an_error(self, tmp_path, capsys):
        code = main(["info", str(tmp_path / "nope.deck")])
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_bad_deck_is_an_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.deck"
        bad.write_text("frobnicate 7\n")
        assert main(["info", str(bad)]) == 1
        assert "error" in capsys.readouterr().err


class TestRun:
    def test_prints_csv(self, deck_file, capsys):
        assert main(["run", str(deck_file), "--solver", "nonadaptive",
                     "--seed", "3"]) == 0
        out = capsys.readouterr().out
        lines = out.strip().splitlines()
        assert lines[0] == "sweep_voltage_V,current_A"
        assert len(lines) == 4  # header + 3 sweep points

    def test_writes_csv_file(self, deck_file, tmp_path, capsys):
        out_path = tmp_path / "iv.csv"
        assert main([
            "run", str(deck_file), "--solver", "nonadaptive",
            "--output", str(out_path),
        ]) == 0
        assert out_path.exists()
        assert out_path.read_text().startswith("sweep_voltage_V")


class TestLint:
    def test_clean_deck_exits_zero(self, deck_file, capsys):
        assert main(["lint", str(deck_file)]) == 0
        assert "clean" in capsys.readouterr().out

    def test_error_deck_exits_two(self, capsys):
        code = main(["lint", str(DATA / "floating_island.deck")])
        assert code == 2
        out = capsys.readouterr().out
        assert "SEM010" in out and "error" in out

    def test_warning_deck_exits_one(self, capsys):
        code = main(["lint", str(DATA / "low_resistance.deck")])
        assert code == 1
        assert "SEM030" in capsys.readouterr().out

    def test_logic_netlist_is_sniffed(self, capsys):
        code = main(["lint", str(DATA / "combinational_loop.net")])
        assert code == 2
        assert "SEM052" in capsys.readouterr().out

    def test_explicit_format_overrides_sniffing(self, capsys):
        code = main(["lint", "--format", "logic",
                     str(DATA / "undriven_input.net")])
        assert code == 2
        assert "SEM050" in capsys.readouterr().out

    def test_missing_file_exits_two(self, tmp_path, capsys):
        assert main(["lint", str(tmp_path / "nope.deck")]) == 2
        assert "error" in capsys.readouterr().err

    def test_nothing_to_lint_exits_two(self, capsys):
        assert main(["lint"]) == 2
        assert "nothing to lint" in capsys.readouterr().err

    def test_unparseable_text_reports_sem001(self, tmp_path, capsys):
        bad = tmp_path / "bad.deck"
        bad.write_text("junc 1 1\n")
        assert main(["lint", str(bad)]) == 2
        assert "SEM001" in capsys.readouterr().out

    def test_single_benchmark(self, capsys):
        assert main(["lint", "--benchmark", "c1908"]) == 0
        assert "clean" in capsys.readouterr().out

    def test_all_benchmarks_have_no_errors(self, capsys):
        code = main(["lint", "--benchmarks"])
        assert code <= 1  # warnings allowed, errors not
        out = capsys.readouterr().out
        assert "error" not in out

    def test_codes_table(self, capsys):
        assert main(["lint", "--codes"]) == 0
        out = capsys.readouterr().out
        assert "SEM010" in out and "SEM052" in out and "fix:" in out

    def test_unknown_benchmark_exits_one(self, capsys):
        assert main(["lint", "--benchmark", "c6288"]) == 1
        assert "error" in capsys.readouterr().err


class TestStrictRun:
    def test_strict_refuses_defective_deck(self, capsys):
        code = main(["run", "--strict", str(DATA / "floating_island.deck")])
        assert code == 1
        err = capsys.readouterr().err
        assert "SEM010" in err
        assert err.count("\n") == 1  # one-line diagnostic, no traceback

    def test_defective_deck_without_strict_still_fails_cleanly(self, capsys):
        # the singular electrostatics problem surfaces as a SemsimError
        code = main(["run", str(DATA / "floating_island.deck")])
        assert code == 1
        assert "error" in capsys.readouterr().err


class TestInfoLintSummary:
    def test_clean_deck_reports_clean(self, deck_file, capsys):
        assert main(["info", str(deck_file)]) == 0
        assert "lint:           clean" in capsys.readouterr().out

    def test_warning_deck_points_at_lint(self, capsys):
        assert main(["info", str(DATA / "low_resistance.deck")]) == 0
        out = capsys.readouterr().out
        assert "warnings" in out and "repro lint" in out


class TestBenchmarks:
    def test_lists_all_fifteen(self, capsys):
        assert main(["benchmarks"]) == 0
        out = capsys.readouterr().out
        assert "c1908" in out and "6988" in out
        assert out.count("junctions") == 15

    def test_benchmark_detail(self, capsys):
        assert main(["benchmark", "74LS138"]) == 0
        out = capsys.readouterr().out
        assert "junctions:   168" in out

    def test_unknown_benchmark_is_an_error(self, capsys):
        assert main(["benchmark", "c6288"]) == 1
        assert "error" in capsys.readouterr().err


class TestRunTrace:
    def test_trace_file_is_written(self, deck_file, tmp_path, capsys):
        trace = tmp_path / "run.json"
        assert main(["run", str(deck_file), "--seed", "1",
                     "--trace", str(trace)]) == 0
        captured = capsys.readouterr()
        # stdout stays a clean CSV; telemetry goes to stderr
        assert captured.out.startswith("sweep_voltage_V")
        assert "trace events" in captured.err
        import json

        payload = json.loads(trace.read_text())
        assert payload["traceEvents"]

    def test_jsonl_suffix_selects_jsonl(self, deck_file, tmp_path, capsys):
        trace = tmp_path / "run.jsonl"
        assert main(["run", str(deck_file), "--trace", str(trace)]) == 0
        import json

        first = json.loads(trace.read_text().splitlines()[0])
        assert "name" in first and "ph" not in first  # raw records, not chrome

    def test_stats_table_on_stderr(self, deck_file, capsys):
        assert main(["run", str(deck_file), "--seed", "1"]) == 0
        err = capsys.readouterr().err
        assert "solver stats" in err
        assert "sequential_rate_evaluations" in err


class TestInfoProbe:
    def test_probe_prints_stats_table(self, deck_file, capsys):
        assert main(["info", str(deck_file), "--probe", "200"]) == 0
        out = capsys.readouterr().out
        assert "solver stats (200-event probe)" in out
        assert "full_refreshes" in out

    def test_probe_names_the_adaptive_step(self, deck_file, capsys, monkeypatch):
        from repro.core import native

        assert main(["info", str(deck_file), "--probe", "20"]) == 0
        expected = native.load().describe()
        assert f"adaptive step:  {expected}" in capsys.readouterr().out
        monkeypatch.setattr(
            native, "load", lambda: native.Native(None, None, None, "no compiler")
        )
        assert main(["info", str(deck_file), "--probe", "20"]) == 0
        assert "adaptive step:  python (no compiler)" in capsys.readouterr().out


class TestProfile:
    def test_summary_and_chrome_trace(self, deck_file, tmp_path, capsys):
        trace = tmp_path / "profile.json"
        assert main(["profile", str(deck_file), "--seed", "2",
                     "--trace", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "profile: solver=adaptive" in out
        assert "phase wall time" in out
        assert "work saved" in out
        import json

        payload = json.loads(trace.read_text())
        names = {event["name"] for event in payload["traceEvents"]}
        assert "engine.run" in names
        # a trace of spans only: nothing is recorded per tunnel event
        assert {event["ph"] for event in payload["traceEvents"]} == {"X"}
        assert payload["otherData"]["metrics"]["counters"]["solver.events"] > 0

    def test_nonadaptive_profile(self, deck_file, capsys):
        assert main(["profile", str(deck_file), "--solver",
                     "nonadaptive"]) == 0
        assert "solver=nonadaptive" in capsys.readouterr().out

    def test_baseline_comparison(self, deck_file, capsys):
        assert main(["profile", str(deck_file), "--baseline"]) == 0
        assert "measured baseline" in capsys.readouterr().out

    def test_missing_deck_exits_two(self, tmp_path, capsys):
        assert main(["profile", str(tmp_path / "nope.deck")]) == 2
        assert "error" in capsys.readouterr().err
