"""The error contract over the package source: every deliberate error is a
``SemsimError``, so no broad ``except`` (REPRO001) and no raised bare builtin
(REPRO002); every module has ``from __future__ import annotations`` (REPRO004,
for Python 3.9).  ``# repro: allow[REPRO00x] reason`` waives its own line."""

from __future__ import annotations

import ast
import re
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"
BUILTINS = frozenset({
    "ValueError", "TypeError", "RuntimeError", "KeyError", "IndexError", "OSError",
    "Exception", "BaseException", "ArithmeticError", "ZeroDivisionError",
    "AttributeError", "AssertionError"})
WAIVER = re.compile(r"#\s*repro:\s*allow\[([A-Z0-9,\s]+)\]")
FUTURE = "from __future__ import annotations\n"


def violations(path: Path) -> list[tuple[int, str]]:  # unwaived (line, code)
    lines = (source := path.read_text(encoding="utf-8")).splitlines() or [""]
    tree = ast.parse(source)
    found = [] if any(
        isinstance(node, ast.ImportFrom) and node.module == "__future__"
        and any(alias.name == "annotations" for alias in node.names)
        for node in tree.body) else [(1, "REPRO004")]
    for node in ast.walk(tree):
        if isinstance(node, ast.ExceptHandler) and (node.type is None or getattr(
                node.type, "id", None) in ("Exception", "BaseException")):
            found.append((node.lineno, "REPRO001"))
        elif isinstance(node, ast.Raise):
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name) and exc.id in BUILTINS:
                found.append((node.lineno, "REPRO002"))
    return sorted((line, code) for line, code in found if not any(
        code in m.group(1) for m in WAIVER.finditer(lines[line - 1])))


def test_package_source_keeps_the_error_contract():
    assert [f"{path.relative_to(SRC)}:{line}: {code}"
            for path in sorted(SRC.rglob("*.py"))
            for line, code in violations(path)] == []


@pytest.mark.parametrize("code, source", [
    ("REPRO001", FUTURE + "try: f()\nexcept OSError: raise\nexcept Exception: f()\n"),
    ("REPRO001", FUTURE + "try: f()\nexcept: f()\n"),
    ("REPRO002", FUTURE + "def f(): raise NotImplementedError\nraise ValueError(1)\n"),
    ("REPRO002", FUTURE + "raise RuntimeError\n"),
    ("REPRO004", "x = 1\n")],
    ids=["except-Exception", "bare-except", "raise-call", "raise-name", "no-future"])
def test_rule_flags_fixture_module_unless_waived(tmp_path, code, source):
    path = tmp_path / "mod.py"
    path.write_text(source)  # the flagged line is the last one
    assert violations(path) == [(source.count("\n"), code)]
    path.write_text(source[:-1] + f"  # repro: allow[{code}] fixture\n")
    assert violations(path) == []
