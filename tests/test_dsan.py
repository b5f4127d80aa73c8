"""Tests for the ``DET0xx`` determinism rules (``repro check`` ``det`` pass)."""

from __future__ import annotations

from pathlib import Path

from repro.cli import main as cli_main
from repro.static import STATIC_CODES, check_paths, code_table, report_as_json
from repro.static.source import ModuleSource
from repro.static.waivers import WaiverIndex

REPO = Path(__file__).parent.parent

HEADER = "from __future__ import annotations\nimport numpy as np\n"

DET_CODES = {code for code in STATIC_CODES if code.startswith("DET")}


def report_of(tmp_path, source, name="mod.py"):
    path = tmp_path / name
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(HEADER + source)
    # anchor relpaths at tmp_path so module-scoped exemptions
    # (telemetry/clock.py, parallel/seeds.py) resolve as in a real scan
    return check_paths([path], relative_to=tmp_path, passes=("det",))


def codes_of(tmp_path, source, name="mod.py"):
    return [f.code for f in report_of(tmp_path, source, name)]


class TestRngRules:
    def test_unseeded_default_rng_flagged(self, tmp_path):
        src = "def f():\n    return np.random.default_rng()\n"
        assert codes_of(tmp_path, src) == ["DET001"]

    def test_explicit_none_seed_flagged(self, tmp_path):
        src = "def f():\n    return np.random.default_rng(None)\n"
        assert codes_of(tmp_path, src) == ["DET001"]

    def test_seed_parameter_allowed(self, tmp_path):
        src = "def f(seed):\n    return np.random.default_rng(seed)\n"
        assert codes_of(tmp_path, src) == []

    def test_rng_parameter_allowed(self, tmp_path):
        src = "def f(rng_seed):\n    return np.random.default_rng(rng_seed)\n"
        assert codes_of(tmp_path, src) == []

    def test_hardcoded_seed_flagged(self, tmp_path):
        src = "def f():\n    return np.random.default_rng(1234)\n"
        assert codes_of(tmp_path, src) == ["DET003"]

    def test_unrelated_variable_flagged(self, tmp_path):
        src = (
            "def f(n_points):\n"
            "    return np.random.default_rng(n_points)\n"
        )
        assert codes_of(tmp_path, src) == ["DET003"]

    def test_spawn_seeds_flow_allowed(self, tmp_path):
        src = (
            "from repro.parallel.seeds import spawn_seeds\n"
            "def f():\n"
            "    return np.random.default_rng(spawn_seeds(7, 4)[0])\n"
        )
        assert codes_of(tmp_path, src) == []

    def test_config_seed_sequence_flow_allowed(self, tmp_path):
        src = (
            "def f(config):\n"
            "    return np.random.default_rng(config.seed_sequence())\n"
        )
        assert codes_of(tmp_path, src) == []

    def test_assigned_seed_flows_through_name(self, tmp_path):
        src = (
            "def f(config):\n"
            "    root = config.seed_sequence()\n"
            "    return np.random.default_rng(root)\n"
        )
        assert codes_of(tmp_path, src) == []

    def test_global_numpy_draw_flagged(self, tmp_path):
        src = "def f():\n    return np.random.random()\n"
        assert codes_of(tmp_path, src) == ["DET002"]

    def test_global_numpy_seed_flagged(self, tmp_path):
        src = "def f():\n    np.random.seed(0)\n"
        assert codes_of(tmp_path, src) == ["DET002"]

    def test_global_stdlib_draw_flagged(self, tmp_path):
        src = "import random\ndef f(x):\n    random.shuffle(x)\n"
        assert codes_of(tmp_path, src) == ["DET002"]

    def test_generator_method_not_confused_with_global(self, tmp_path):
        src = "def f(rng):\n    return rng.random()\n"
        assert codes_of(tmp_path, src) == []

    def test_seed_plumbing_module_exempt(self, tmp_path):
        src = "def f():\n    return np.random.default_rng()\n"
        assert codes_of(tmp_path, src, name="parallel/seeds.py") == []


class TestClockRule:
    def test_perf_counter_flagged(self, tmp_path):
        src = "import time\ndef f():\n    return time.perf_counter()\n"
        assert codes_of(tmp_path, src) == ["DET010"]

    def test_urandom_flagged(self, tmp_path):
        src = "import os\ndef f():\n    return os.urandom(8)\n"
        assert codes_of(tmp_path, src) == ["DET010"]

    def test_datetime_now_flagged(self, tmp_path):
        src = (
            "from datetime import datetime\n"
            "def f():\n    return datetime.now()\n"
        )
        assert codes_of(tmp_path, src) == ["DET010"]

    def test_clock_module_exempt(self, tmp_path):
        src = "import time\ndef f():\n    return time.perf_counter()\n"
        assert codes_of(tmp_path, src, name="telemetry/clock.py") == []


class TestWorkerStateRule:
    def test_mutation_in_pool_worker_flagged(self, tmp_path):
        src = (
            "STATE = []\n"
            "def work(x):\n"
            "    STATE.append(x)\n"
            "    return x\n"
            "def launch(pool, items):\n"
            "    return pool.execute_shards(work, items)\n"
        )
        assert codes_of(tmp_path, src) == ["DET020"]

    def test_global_statement_in_worker_flagged(self, tmp_path):
        src = (
            "COUNT = 0\n"
            "def work(x):\n"
            "    global COUNT\n"
            "    COUNT += 1\n"
            "def launch(pool, items):\n"
            "    return pool.execute_shards(work, items)\n"
        )
        assert codes_of(tmp_path, src) == ["DET020"]

    def test_transitively_reachable_write_flagged(self, tmp_path):
        src = (
            "CACHE = {}\n"
            "def work(x):\n"
            "    return helper(x)\n"
            "def helper(x):\n"
            "    CACHE[x] = 1\n"
            "    return x\n"
            "def launch(pool, items):\n"
            "    return pool.execute_shards(work, items)\n"
        )
        report = report_of(tmp_path, src)
        assert [f.code for f in report] == ["DET020"]
        # the message names a witness chain to the worker entry
        assert "work" in report.findings[0].message

    def test_shard_entry_is_implicit_worker(self, tmp_path):
        src = (
            "CACHE = {}\n"
            "def _shard_entry(worker, payload):\n"
            "    CACHE[0] = payload\n"
            "    return worker(payload)\n"
        )
        assert codes_of(tmp_path, src) == ["DET020"]

    def test_write_outside_worker_paths_allowed(self, tmp_path):
        src = (
            "STATE = []\n"
            "def record(x):\n"
            "    STATE.append(x)\n"
        )
        assert codes_of(tmp_path, src) == []


class TestPoolBoundaryRule:
    def test_lambda_worker_flagged(self, tmp_path):
        src = (
            "def launch(pool, items):\n"
            "    return pool.execute_shards(lambda x: x, items)\n"
        )
        assert codes_of(tmp_path, src) == ["DET021"]

    def test_nested_function_worker_flagged(self, tmp_path):
        src = (
            "def launch(pool, items):\n"
            "    def work(x):\n"
            "        return x\n"
            "    return pool.execute_shards(work, items)\n"
        )
        assert codes_of(tmp_path, src) == ["DET021"]

    def test_module_level_worker_allowed(self, tmp_path):
        src = (
            "def work(x):\n"
            "    return x\n"
            "def launch(pool, items):\n"
            "    return pool.execute_shards(work, items)\n"
        )
        assert codes_of(tmp_path, src) == []


class TestSetOrderRule:
    def test_sum_over_set_flagged(self, tmp_path):
        src = "def f(values):\n    return sum(set(values))\n"
        assert codes_of(tmp_path, src) == ["DET022"]

    def test_float_accumulation_over_set_flagged(self, tmp_path):
        src = (
            "def f(items):\n"
            "    total = 0.0\n"
            "    for x in set(items):\n"
            "        total += x\n"
            "    return total\n"
        )
        assert codes_of(tmp_path, src) == ["DET022"]

    def test_rng_draw_over_set_flagged(self, tmp_path):
        src = (
            "def f(items, rng):\n"
            "    return [rng.random() for _ in set(items)]\n"
        )
        assert codes_of(tmp_path, src) == ["DET022"]

    def test_sorted_set_allowed(self, tmp_path):
        src = (
            "def f(items):\n"
            "    total = 0.0\n"
            "    for x in sorted(set(items)):\n"
            "        total += x\n"
            "    return total\n"
        )
        assert codes_of(tmp_path, src) == []

    def test_order_insensitive_set_loop_allowed(self, tmp_path):
        src = (
            "def f(items):\n"
            "    out = {}\n"
            "    for x in set(items):\n"
            "        out[x] = x\n"
            "    return out\n"
        )
        assert codes_of(tmp_path, src) == []

    def test_dict_iteration_allowed(self, tmp_path):
        # dicts preserve insertion order (language guarantee since 3.7)
        src = (
            "def f(table):\n"
            "    total = 0.0\n"
            "    for x in table.values():\n"
            "        total += x\n"
            "    return total\n"
        )
        assert codes_of(tmp_path, src) == []


class TestWaivers:
    def test_trailing_waiver_suppresses(self, tmp_path):
        src = (
            "def f():\n"
            "    return np.random.default_rng()"
            "  # repro: allow[DET001] replay tool\n"
        )
        assert codes_of(tmp_path, src) == []

    def test_comment_block_above_suppresses(self, tmp_path):
        src = (
            "def f():\n"
            "    # repro: allow[DET001] seeded by the caller's harness\n"
            "    return np.random.default_rng()\n"
        )
        assert codes_of(tmp_path, src) == []

    def test_waiver_is_per_code(self, tmp_path):
        src = (
            "def f():\n"
            "    return np.random.default_rng()"
            "  # repro: allow[DET022]\n"
        )
        assert codes_of(tmp_path, src) == ["DET001"]

    def test_waived_codes_parses_lists(self, tmp_path):
        source = (
            "x = 1  # repro: allow[DET001,DET005] because reasons\n"
            "y = 2  # a plain comment\n"
        )
        module = ModuleSource.parse_text(source, tmp_path / "mod.py")
        waivers = WaiverIndex(module).waivers
        assert [w.codes for w in waivers] == [frozenset({"DET001", "DET005"})]


class TestReport:
    def test_clean_report(self, tmp_path):
        report = report_of(tmp_path, "def f(x):\n    return x\n")
        assert report.exit_code == 0
        assert len(report) == 0
        assert "clean" in report.summary()

    def test_error_exits_two(self, tmp_path):
        report = report_of(
            tmp_path, "def f():\n    return np.random.default_rng()\n"
        )
        assert report.exit_code == 2
        assert report.has("DET001")

    def test_warning_exits_one(self, tmp_path):
        report = report_of(
            tmp_path, "def f(values):\n    return sum(set(values))\n"
        )
        assert report.exit_code == 1

    def test_finding_format_carries_location(self, tmp_path):
        report = report_of(
            tmp_path, "def f():\n    return np.random.default_rng()\n"
        )
        text = report.findings[0].format()
        assert "mod.py" in text and "DET001" in text

    def test_json_rendering(self, tmp_path):
        import json

        report = report_of(
            tmp_path, "def f():\n    return np.random.default_rng()\n"
        )
        payload = json.loads(report_as_json(report))
        assert payload["exit_code"] == 2
        assert payload["findings"][0]["code"] == "DET001"

    def test_registry_is_consistent(self):
        assert set(DET_CODES) == {
            "DET001", "DET002", "DET003", "DET010",
            "DET020", "DET021", "DET022",
        }
        table = code_table()
        for code in DET_CODES:
            assert code in table


class TestRepoIsClean:
    def test_src_repro_passes(self):
        report = check_paths([REPO / "src" / "repro"], passes=("det",))
        assert report.exit_code == 0, report.format()
        assert report.files_scanned > 50


class TestCli:
    """The DET rules' command-line front end: ``repro check --select DET``."""

    def test_sanitize_default_root_clean(self, capsys):
        assert cli_main(["check", "--select", "DET"]) == 0
        assert "clean" in capsys.readouterr().out

    def test_sanitize_reports_violations(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text("import numpy as np\nrng = np.random.default_rng()\n")
        assert cli_main(["check", "--select", "DET", str(bad)]) == 2
        out = capsys.readouterr().out
        assert "DET001" in out

    def test_sanitize_json_format(self, tmp_path, capsys):
        import json

        bad = tmp_path / "bad.py"
        bad.write_text("import numpy as np\nrng = np.random.default_rng()\n")
        assert cli_main(
            ["check", "--select", "DET", str(bad), "--format", "json"]
        ) == 2
        payload = json.loads(capsys.readouterr().out)
        assert payload["findings"][0]["code"] == "DET001"

    def test_sanitize_codes_table(self, capsys):
        assert cli_main(["check", "--codes"]) == 0
        out = capsys.readouterr().out
        assert "DET001" in out and "DET022" in out
