"""Shared AST visitor infrastructure of the static passes.

Both rule families — repository style (``REPRO00x``) and determinism
(``DET0xx``) — are built on this module: one waiver-aware reporting
base class (:class:`RuleVisitor`) and small AST helpers the rules
share (dotted-name resolution, set-expression detection).
"""

from __future__ import annotations

import ast

from repro.static.source import ModuleSource
from repro.static.waivers import WaiverIndex


class RuleVisitor(ast.NodeVisitor):
    """Node visitor with per-line waiver handling.

    Subclasses call :meth:`report` instead of appending directly; the
    shared :class:`WaiverIndex` decides whether the report is
    suppressed and records the waiver as used either way.
    """

    def __init__(self, module: ModuleSource, waivers: WaiverIndex):
        self.module = module
        self.waivers = waivers
        #: ``(lineno, code, message)`` tuples, in visit order
        self.raw_reports: list[tuple[int, str, str]] = []

    def report(self, node: ast.AST, code: str, message: str) -> None:
        lineno = getattr(node, "lineno", 1)
        if not self.waivers.waives(lineno, code):
            self.raw_reports.append((lineno, code, message))


# ----------------------------------------------------------------------
# AST helpers shared by the rules
# ----------------------------------------------------------------------

def dotted_name(node: ast.expr) -> str | None:
    """``a.b.c`` for a Name/Attribute chain, ``None`` otherwise."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def call_name(node: ast.Call) -> str | None:
    """Dotted name of a call's callee (``np.random.default_rng``)."""
    return dotted_name(node.func)


def last_attr(name: str) -> str:
    """Final component of a dotted name."""
    return name.rsplit(".", 1)[-1]


def is_set_expression(node: ast.expr) -> bool:
    """Does the expression build an unordered ``set``/``frozenset``?

    Dicts are excluded deliberately: CPython dicts preserve insertion
    order (a language guarantee since 3.7), so iterating one is
    deterministic; only set iteration order depends on hash values and
    therefore on ``PYTHONHASHSEED``.
    """
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        name = call_name(node)
        if name in ("set", "frozenset"):
            return True
        # chained construction: set(a) | set(b), set(a).union(b)
        if name is not None and last_attr(name) in ("union", "intersection",
                                                    "difference",
                                                    "symmetric_difference"):
            return is_set_expression(node.func.value) \
                if isinstance(node.func, ast.Attribute) else False
    if isinstance(node, ast.BinOp) and isinstance(
        node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
    ):
        return is_set_expression(node.left) or is_set_expression(node.right)
    return False


def toplevel_function_names(tree: ast.Module) -> frozenset[str]:
    """Names bound to module-level ``def``/``async def`` statements."""
    return frozenset(
        node.name
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    )


def module_level_assignments(tree: ast.Module) -> frozenset[str]:
    """Plain names assigned at module level (the module's globals)."""
    names: set[str] = set()
    for node in tree.body:
        targets: list[ast.expr] = []
        if isinstance(node, ast.Assign):
            targets = list(node.targets)
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
            targets = [node.target]
        for target in targets:
            if isinstance(target, ast.Name):
                names.add(target.id)
            elif isinstance(target, ast.Tuple):
                names.update(
                    e.id for e in target.elts if isinstance(e, ast.Name)
                )
    return frozenset(names)

