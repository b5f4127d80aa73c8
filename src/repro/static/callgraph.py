"""Approximate call graph and pool-worker reachability.

The DET020/DET021 rules need to know which functions can run *inside a
pool worker process*: anything reachable from a worker entry point —
a function passed to :func:`repro.parallel.pool.execute_shards` — plus
the pool's own subprocess entry.  Exact interprocedural analysis is
out of scope for a sanitizer; this module builds a deliberately
over-approximate graph keyed by *bare* function name (``measure`` and
``Foo.measure`` collide), which errs toward flagging.  False positives
are waived per line with a justification, which is exactly the audit
trail the determinism contract wants.
"""

from __future__ import annotations

import ast

from repro.static.source import ModuleSource
from repro.static.visitors import call_name, last_attr

#: Functions whose first argument is shipped to worker processes.
POOL_SUBMISSION_CALLS = frozenset({"execute_shards"})

#: The pool's own subprocess entry: everything it calls runs in a
#: worker even though it is never *passed* to ``execute_shards``.
IMPLICIT_WORKER_ENTRIES = frozenset({"_shard_entry"})


class CallGraph:
    """Name-keyed call graph over a set of parsed modules."""

    def __init__(self, modules: list[ModuleSource]):
        #: bare caller name -> bare callee names; its keys are every
        #: function or method defined in the scanned set
        self.calls: dict[str, set[str]] = {}
        #: bare names of functions passed to a pool submission call
        self.worker_entries: set[str] = set()
        for module in modules:
            self._scan_module(module)
        self.worker_entries |= IMPLICIT_WORKER_ENTRIES & set(self.calls)

    # ------------------------------------------------------------------
    def _scan_module(self, module: ModuleSource) -> None:
        """One walk per module: definitions, per-function call edges and
        pool submissions in a single traversal."""
        # (node, innermost enclosing function name)
        stack: list[tuple[ast.AST, str | None]] = [(module.tree, None)]
        while stack:
            node, func = stack.pop()
            for child in ast.iter_child_nodes(node):
                if isinstance(
                    child, (ast.FunctionDef, ast.AsyncFunctionDef)
                ):
                    self.calls.setdefault(child.name, set())
                    stack.append((child, child.name))
                    continue
                if isinstance(child, (ast.ClassDef, ast.Lambda)):
                    # calls directly in a class body or inside a lambda
                    # belong to no named function
                    stack.append((child, None))
                    continue
                if isinstance(child, ast.Call):
                    name = call_name(child)
                    if name is not None:
                        bare = last_attr(name)
                        if func is not None:
                            self.calls[func].add(bare)
                        if bare in POOL_SUBMISSION_CALLS and child.args:
                            entry = _callable_bare_name(child.args[0])
                            if entry is not None:
                                self.worker_entries.add(entry)
                stack.append((child, func))

    # ------------------------------------------------------------------
    def worker_reachable(self) -> frozenset[str]:
        """Bare names of every function reachable from a worker entry."""
        seen: set[str] = set()
        frontier = [e for e in self.worker_entries if e in self.calls]
        while frontier:
            name = frontier.pop()
            if name in seen:
                continue
            seen.add(name)
            for callee in self.calls.get(name, ()):
                if callee in self.calls and callee not in seen:
                    frontier.append(callee)
        return frozenset(seen)

    def witness_path(self, target: str) -> list[str]:
        """One entry-to-target call chain, for a readable message."""
        for entry in sorted(self.worker_entries):
            path = self._search(entry, target, [entry], set())
            if path is not None:
                return path
        return [target]

    def _search(
        self, current: str, target: str, path: list[str], seen: set[str]
    ) -> list[str] | None:
        if current == target:
            return path
        if current in seen:
            return None
        seen.add(current)
        for callee in sorted(self.calls.get(current, ())):
            if callee not in self.calls:
                continue
            found = self._search(callee, target, path + [callee], seen)
            if found is not None:
                return found
        return None


# ----------------------------------------------------------------------
# AST walking helpers
# ----------------------------------------------------------------------

def _callable_bare_name(node: ast.expr) -> str | None:
    """Bare name of a callable reference (``worker`` / ``mod.worker``)."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None
