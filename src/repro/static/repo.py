"""Repository style rules (``REPRO001-004``), the ``repo`` pass of
``repro check``:

``REPRO001``
    No ``except Exception:`` / bare ``except:`` inside ``src/repro`` —
    the package contract is a precise :class:`SemsimError` hierarchy,
    and blanket handlers hide solver bugs as physics.
``REPRO002``
    No raising of bare builtin exceptions — deliberate errors must
    derive from ``SemsimError`` (``NotImplementedError`` on abstract
    hooks is exempt).
``REPRO003``
    No ``==``/``!=`` against non-zero float literals, and none at all
    on identifiers that look like energies or voltages unless the
    other side is a literal ``0``/``0.0`` sentinel.
``REPRO004``
    ``from __future__ import annotations`` in every module.

A violation is waived for one line with a ``# repro: allow[CODE]``
comment.
"""

from __future__ import annotations

import ast
from pathlib import Path

from repro.lint.diagnostics import Severity
from repro.static.model import Diagnostic, StaticCode, diagnostic, register_codes
from repro.static.source import ModuleSource
from repro.static.visitors import RuleVisitor
from repro.static.waivers import WaiverIndex

register_codes(
    StaticCode(
        "REPRO001", Severity.ERROR, "broad exception handler",
        "catch specific SemsimError subclasses (or builtin types you "
        "expect)",
        domain="repository",
    ),
    StaticCode(
        "REPRO002", Severity.ERROR, "raises bare builtin exception",
        "deliberate errors must derive from SemsimError (see "
        "repro.errors)",
        domain="repository",
    ),
    StaticCode(
        "REPRO003", Severity.ERROR, "float literal equality",
        "compare with a tolerance (math.isclose / pytest.approx)",
        domain="repository",
    ),
    StaticCode(
        "REPRO004", Severity.ERROR, "missing __future__ annotations",
        "add 'from __future__ import annotations' at the top of the "
        "module",
        domain="repository",
    ),
)

FORBIDDEN_RAISES = frozenset({
    "ValueError", "TypeError", "RuntimeError", "KeyError", "IndexError",
    "Exception", "BaseException", "OSError", "ArithmeticError",
    "ZeroDivisionError", "AttributeError", "AssertionError",
})

#: identifier fragments that mark a float-physics quantity
PHYSICS_FRAGMENTS = ("energy", "voltage", "delta_w")
PHYSICS_NAMES = frozenset({"dw", "ej", "e_c", "e_j", "bias", "vds", "vgs"})


def _is_zero_literal(node: ast.expr) -> bool:
    return isinstance(node, ast.Constant) and node.value in (0, 0.0)


def _is_physics_name(node: ast.expr) -> bool:
    if isinstance(node, ast.Name):
        name = node.id
    elif isinstance(node, ast.Attribute):
        name = node.attr
    else:
        return False
    lowered = name.lower()
    return lowered in PHYSICS_NAMES or any(
        fragment in lowered for fragment in PHYSICS_FRAGMENTS
    )


class RepoRules(RuleVisitor):
    """REPRO001-003 in one traversal (REPRO004 is a module-level check)."""

    def visit_ExceptHandler(self, node: ast.ExceptHandler) -> None:
        broad = node.type is None or (
            isinstance(node.type, ast.Name)
            and node.type.id in ("Exception", "BaseException")
        )
        if broad:
            self.report(
                node, "REPRO001",
                "broad exception handler; catch specific SemsimError "
                "subclasses (or builtin types you expect)",
            )
        self.generic_visit(node)

    def visit_Raise(self, node: ast.Raise) -> None:
        exc = node.exc
        name = None
        if isinstance(exc, ast.Call) and isinstance(exc.func, ast.Name):
            name = exc.func.id
        elif isinstance(exc, ast.Name):
            name = exc.id
        if name in FORBIDDEN_RAISES:
            self.report(
                node, "REPRO002",
                f"raises builtin {name}; deliberate errors must derive "
                "from SemsimError (see repro.errors)",
            )
        self.generic_visit(node)

    def visit_Compare(self, node: ast.Compare) -> None:
        operands = [node.left, *node.comparators]
        eq_ops = [
            op for op in node.ops if isinstance(op, (ast.Eq, ast.NotEq))
        ]
        if eq_ops:
            for operand in operands:
                if (
                    isinstance(operand, ast.Constant)
                    and isinstance(operand.value, float)
                    and operand.value != 0.0
                ):
                    self.report(
                        node, "REPRO003",
                        f"float equality against literal {operand.value!r}; "
                        "compare with a tolerance (math.isclose / "
                        "pytest.approx)",
                    )
            if len(operands) == 2:
                left, right = operands
                for this, other in ((left, right), (right, left)):
                    if _is_physics_name(this) and not _is_zero_literal(other) \
                            and not isinstance(other, ast.Constant):
                        self.report(
                            node, "REPRO003",
                            "float equality on a physics quantity "
                            f"({ast.unparse(this)}); compare with a "
                            "tolerance",
                        )
                        break
        self.generic_visit(node)


def _module_violations(
    module: ModuleSource, windex: WaiverIndex
) -> list[tuple[int, str, str]]:
    checker = RepoRules(module, windex)
    checker.visit(module.tree)
    violations = list(checker.raw_reports)

    has_future = any(
        isinstance(node, ast.ImportFrom)
        and node.module == "__future__"
        and any(alias.name == "annotations" for alias in node.names)
        for node in module.tree.body
    )
    if not has_future and not windex.waives(1, "REPRO004"):
        violations.append((
            1, "REPRO004",
            "missing 'from __future__ import annotations'",
        ))
    return sorted(violations)


def repo_pass(module: ModuleSource, windex: WaiverIndex) -> list[Diagnostic]:
    """Engine entry point: REPRO001-004 as :class:`Diagnostic` records."""
    return [
        diagnostic(
            code,
            message,
            path=str(module.path),
            line=lineno,
            relpath=module.relpath,
        )
        for lineno, code, message in _module_violations(
            module, windex
        )
    ]


def check_module(path: Path) -> list[tuple[int, str, str]]:
    """All ``(lineno, code, message)`` violations of one source file."""
    module = ModuleSource.parse(Path(path))
    return _module_violations(module, WaiverIndex(module))

