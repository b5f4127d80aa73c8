"""Meta-tests: the public API is complete and documented.

A reproduction meant for adoption needs every public item documented;
these tests enforce that structurally instead of by review.
"""

import importlib
import inspect
import pkgutil
import shutil
import subprocess
from pathlib import Path

import pytest

import repro

PACKAGES = [
    "repro",
    "repro.analysis",
    "repro.circuit",
    "repro.core",
    "repro.logic",
    "repro.master",
    "repro.netlist",
    "repro.parallel",
    "repro.physics",
    "repro.spice",
]


def _walk_modules():
    modules = []
    for name in PACKAGES:
        module = importlib.import_module(name)
        modules.append(module)
        if hasattr(module, "__path__"):
            for info in pkgutil.iter_modules(module.__path__):
                if info.name == "__main__":
                    continue  # importing it would run the CLI
                modules.append(
                    importlib.import_module(f"{name}.{info.name}")
                )
    return modules


class TestDocumentation:
    @pytest.mark.parametrize("module", _walk_modules(),
                             ids=lambda m: m.__name__)
    def test_module_has_docstring(self, module):
        assert module.__doc__, f"{module.__name__} lacks a module docstring"

    @pytest.mark.parametrize("package_name", PACKAGES)
    def test_exported_items_are_documented(self, package_name):
        package = importlib.import_module(package_name)
        exported = getattr(package, "__all__", [])
        undocumented = []
        for name in exported:
            obj = getattr(package, name)
            if inspect.isclass(obj) or inspect.isfunction(obj):
                if not inspect.getdoc(obj):
                    undocumented.append(name)
        assert not undocumented, (
            f"{package_name} exports undocumented items: {undocumented}"
        )

    @pytest.mark.parametrize("package_name", PACKAGES[1:])
    def test_all_lists_resolve(self, package_name):
        package = importlib.import_module(package_name)
        for name in getattr(package, "__all__", []):
            assert hasattr(package, name), f"{package_name}.{name} missing"


class TestPublicSurface:
    def test_top_level_quickstart_symbols(self):
        for symbol in ("build_set", "MonteCarloEngine", "SimulationConfig",
                       "sweep_iv", "Superconductor"):
            assert hasattr(repro, symbol)

    def test_version_is_exposed(self):
        assert repro.__version__

    def test_error_hierarchy_rooted(self):
        from repro.errors import (
            CircuitError,
            ConvergenceError,
            NetlistError,
            PhysicsError,
            SemsimError,
            SimulationError,
        )

        for exc in (CircuitError, ConvergenceError, NetlistError,
                    PhysicsError, SimulationError):
            assert issubclass(exc, SemsimError)


class TestTypeGate:
    """The typed surface CI runs mypy on is declared in pyproject.toml."""

    REPO = Path(__file__).parent.parent

    def test_mypy_config_covers_lint_surface(self):
        text = (self.REPO / "pyproject.toml").read_text()
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
            cwd=self.REPO, capture_output=True, text=True,
        )
        assert result.returncode == 0, result.stdout + result.stderr
