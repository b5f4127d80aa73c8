"""Tests for the repository style rules (``REPRO001-004``, the ``repo``
pass of ``repro check``)."""

import shutil
import subprocess
from pathlib import Path

import pytest

from repro.static import check_paths
from repro.static.repo import check_module

REPO = Path(__file__).parent.parent

HEADER = "from __future__ import annotations\n"


def violations_of(tmp_path, source):
    path = tmp_path / "mod.py"
    path.write_text(source)
    return check_module(path)


def codes_of(tmp_path, source):
    return [code for _, code, _ in violations_of(tmp_path, source)]


class TestRules:
    def test_clean_module_passes(self, tmp_path):
        src = HEADER + "def f(x: float) -> float:\n    return 2 * x\n"
        assert violations_of(tmp_path, src) == []

    def test_bare_except_flagged(self, tmp_path):
        src = HEADER + "try:\n    pass\nexcept:\n    pass\n"
        assert "REPRO001" in codes_of(tmp_path, src)

    def test_except_exception_flagged(self, tmp_path):
        src = HEADER + "try:\n    pass\nexcept Exception:\n    pass\n"
        assert "REPRO001" in codes_of(tmp_path, src)

    def test_specific_except_allowed(self, tmp_path):
        src = HEADER + "try:\n    pass\nexcept (OSError, KeyError):\n    pass\n"
        assert codes_of(tmp_path, src) == []

    def test_raise_valueerror_flagged(self, tmp_path):
        src = HEADER + "def f():\n    raise ValueError('no')\n"
        assert "REPRO002" in codes_of(tmp_path, src)

    def test_raise_bare_name_flagged(self, tmp_path):
        src = HEADER + "def f():\n    raise RuntimeError\n"
        assert "REPRO002" in codes_of(tmp_path, src)

    def test_raise_semsim_error_allowed(self, tmp_path):
        src = HEADER + (
            "from repro.errors import PhysicsError\n"
            "def f():\n    raise PhysicsError('no')\n"
        )
        assert codes_of(tmp_path, src) == []

    def test_reraise_allowed(self, tmp_path):
        src = HEADER + "try:\n    pass\nexcept OSError:\n    raise\n"
        assert codes_of(tmp_path, src) == []

    def test_notimplementederror_allowed(self, tmp_path):
        src = HEADER + "def f():\n    raise NotImplementedError\n"
        assert codes_of(tmp_path, src) == []

    def test_float_literal_equality_flagged(self, tmp_path):
        src = HEADER + "def f(x):\n    return x == 0.5\n"
        assert "REPRO003" in codes_of(tmp_path, src)

    def test_zero_sentinel_allowed(self, tmp_path):
        src = HEADER + "def f(temperature):\n    return temperature == 0.0\n"
        assert codes_of(tmp_path, src) == []

    def test_physics_name_equality_flagged(self, tmp_path):
        src = HEADER + "def f(energy, other):\n    return energy == other\n"
        assert "REPRO003" in codes_of(tmp_path, src)

    def test_physics_attribute_equality_flagged(self, tmp_path):
        src = HEADER + "def f(a, b):\n    return a.voltage != b.limit\n"
        assert "REPRO003" in codes_of(tmp_path, src)

    def test_int_equality_allowed(self, tmp_path):
        src = HEADER + "def f(n):\n    return n == 3\n"
        assert codes_of(tmp_path, src) == []

    def test_missing_future_import_flagged(self, tmp_path):
        assert codes_of(tmp_path, "x = 1\n") == ["REPRO004"]

    def test_waiver_comment_suppresses(self, tmp_path):
        src = HEADER + (
            "def f():\n"
            "    raise ValueError('x')  # repro: allow[REPRO002]\n"
        )
        assert codes_of(tmp_path, src) == []


class TestRepoIsClean:
    def test_src_repro_passes(self):
        report = check_paths([REPO / "src" / "repro"], passes=("repo",))
        assert report.exit_code == 0, report.format()

    def test_tool_lints_itself(self):
        # the analyzer package is held to the rules it enforces
        report = check_paths(
            [REPO / "src" / "repro" / "static"], passes=("repo",)
        )
        assert report.exit_code == 0, report.format()


class TestTypeGate:
    def test_mypy_config_covers_lint_surface(self):
        text = (REPO / "pyproject.toml").read_text()
        assert "[tool.mypy]" in text
        for module in ("repro.lint", "repro.errors", "repro.constants",
                       "repro.cli"):
            assert f'"{module}' in text

    @pytest.mark.skipif(shutil.which("mypy") is None,
                        reason="mypy not installed")
    def test_mypy_passes_on_typed_surface(self):
        result = subprocess.run(
            [shutil.which("mypy"), "-p", "repro.lint", "-m", "repro.errors",
             "-m", "repro.constants", "-m", "repro.cli"],
            cwd=REPO, capture_output=True, text=True,
        )
        assert result.returncode == 0, result.stdout + result.stderr
