"""Tests for the static-analysis framework (``repro check``).

Covers the shared core: the one waiver syntax, the W000 unused-waiver
rule, JSON/SARIF emitters, the code registry, ``--select`` and the
CLI — plus the repo-clean gate that keeps ``src/repro`` free of
findings from both rule families.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.cli import main as cli_main
from repro.errors import SanitizerError
from repro.static import (
    STATIC_CODES,
    check_paths,
    code_table,
    report_as_json,
    report_as_sarif,
)

REPO = Path(__file__).parent.parent

HEADER = "from __future__ import annotations\nimport numpy as np\n"

#: a module with one DET001: an unseeded generator
BROKEN = (
    "def f():\n"
    "    return np.random.default_rng()\n"
)


def run_check(tmp_path, source, name="mod.py", **kwargs):
    path = tmp_path / name
    path.write_text(source)
    return check_paths([path], relative_to=tmp_path, **kwargs)


def codes_of(tmp_path, source, name="mod.py", **kwargs):
    return [f.code for f in run_check(tmp_path, source, name, **kwargs).findings]


class TestWaivers:
    def test_unified_waiver_suppresses(self, tmp_path):
        src = HEADER + BROKEN.replace(
            "return np.random.default_rng()",
            "return np.random.default_rng()  # repro: allow[DET001] fixture",
        )
        assert codes_of(tmp_path, src) == []

    def test_comment_block_above_covers_next_statement(self, tmp_path):
        src = HEADER + BROKEN.replace(
            "    return np.random.default_rng()",
            "    # repro: allow[DET001] seeded by the caller's harness\n"
            "    return np.random.default_rng()",
        )
        assert codes_of(tmp_path, src) == []

    def test_wrong_code_does_not_suppress(self, tmp_path):
        src = HEADER + BROKEN.replace(
            "return np.random.default_rng()",
            "return np.random.default_rng()  # repro: allow[DET002] wrong code",
        )
        codes = codes_of(tmp_path, src)
        assert "DET001" in codes
        assert "W000" in codes  # the mistargeted waiver is itself stale

    def test_legacy_forms_no_longer_suppress(self, tmp_path):
        src = (
            "import numpy as np  # repro-lint: allow\n"
            "def f():\n"
            "    return np.random.default_rng()"
            "  # dsan: allow[DET001] test fixture\n"
        )
        # neither the old blanket form (REPRO004 on line 1) nor the old
        # determinism form (DET001 on line 3) is a waiver any more
        assert codes_of(tmp_path, src) == ["REPRO004", "DET001"]

    def test_unused_waiver_reported_as_w000(self, tmp_path):
        src = HEADER + "X = 1  # repro: allow[DET001] nothing here\n"
        assert codes_of(tmp_path, src) == ["W000"]

    def test_w000_suppressed_on_partial_runs(self, tmp_path):
        src = HEADER + "X = 1  # repro: allow[DET001] nothing here\n"
        assert codes_of(tmp_path, src, passes=("det",)) == []
        assert codes_of(tmp_path, src, warn_unused_waivers=False) == []


class TestRegistry:
    def test_all_families_registered(self):
        for code in ("REPRO001", "DET001", "W000"):
            assert code in STATIC_CODES
        assert {code.rstrip("0123456789") for code in STATIC_CODES} == {
            "REPRO", "DET", "W",
        }

    def test_code_table_lists_every_domain(self):
        table = code_table()
        for domain in ("repository", "determinism", "framework"):
            assert f"[{domain}]" in table


class TestEmitters:
    def test_json_payload(self, tmp_path):
        report = run_check(tmp_path, HEADER + BROKEN)
        payload = json.loads(report_as_json(report))
        assert payload["files_scanned"] == 1
        assert payload["exit_code"] == 2
        assert [f["code"] for f in payload["findings"]] == ["DET001"]

    def test_sarif_payload(self, tmp_path):
        report = run_check(tmp_path, HEADER + BROKEN)
        sarif = json.loads(report_as_sarif(report))
        assert sarif["version"] == "2.1.0"
        run = sarif["runs"][0]
        rules = {r["id"] for r in run["tool"]["driver"]["rules"]}
        assert "DET001" in rules
        result = run["results"][0]
        assert result["ruleId"] == "DET001"
        assert result["level"] == "error"
        location = result["locations"][0]["physicalLocation"]
        assert location["artifactLocation"]["uri"] == "mod.py"
        assert location["region"]["startLine"] > 1


class TestSelect:
    def test_select_filters_by_prefix(self, tmp_path):
        src = (
            "import numpy as np\n"  # no future import -> REPRO004
            "def f():\n"
            "    return np.random.default_rng()\n"  # DET001
        )
        assert codes_of(tmp_path, src, select=("DET",)) == ["DET001"]
        assert codes_of(tmp_path, src, select=("REPRO",)) == ["REPRO004"]


    def test_unknown_prefix_is_an_error(self, tmp_path):
        with pytest.raises(SanitizerError, match="'ARR'"):
            run_check(tmp_path, HEADER + BROKEN, select=("DET", "ARR"))


class TestCli:
    def test_check_default_root_clean(self, capsys):
        assert cli_main(["check"]) == 0
        assert "clean" in capsys.readouterr().out

    def test_check_reports_violations(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text(HEADER + BROKEN)
        assert cli_main(["check", str(bad)]) == 2
        assert "DET001" in capsys.readouterr().out

    def test_check_codes_table(self, capsys):
        assert cli_main(["check", "--codes"]) == 0
        out = capsys.readouterr().out
        assert "REPRO001" in out and "DET001" in out and "W000" in out

    def test_check_sarif_format(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text(HEADER + BROKEN)
        assert cli_main(["check", "--format", "sarif", str(bad)]) == 2
        sarif = json.loads(capsys.readouterr().out)
        assert sarif["runs"][0]["results"][0]["ruleId"] == "DET001"

    def test_check_unknown_select_prefix_fails(self, tmp_path, capsys):
        clean = tmp_path / "clean.py"
        clean.write_text(HEADER)
        # a typo must fail the gate like a missing path does, not pass
        assert cli_main(["check", "--select", "XYZ", str(clean)]) == 1
        assert "'XYZ'" in capsys.readouterr().err
        assert cli_main(["check", str(tmp_path / "gone")]) == 1


class TestRepoIsClean:
    """The tree must stay clean under the *full* rule set — the same
    gate CI enforces with one blocking ``repro check`` step."""

    def test_src_repro_passes_every_family(self):
        report = check_paths([REPO / "src" / "repro"])
        assert report.exit_code == 0, report.format()
        assert report.files_scanned > 50
