"""The ``repro check`` engine: load once, run every pass, one report.

:func:`check_paths` parses every Python file under the given roots
once (through the shared :data:`~repro.static.source.GLOBAL_CACHE`),
builds the cross-module call graph, runs the requested passes over
each module and returns a :class:`~repro.static.model.StaticReport`
ordered by path, line and code.  After a full run, waiver comments
that suppressed nothing are reported as ``W000``.

Passes (run in this order):

========  =====================================  =================
name      rules                                  module
========  =====================================  =================
repo      ``REPRO001-004`` repository style      repro.static.repo
det       ``DET0xx`` determinism                 repro.static.det
========  =====================================  =================
"""

from __future__ import annotations

from pathlib import Path

from repro.errors import SanitizerError
from repro.static.callgraph import CallGraph
from repro.static.det import det_pass
from repro.static.model import STATIC_CODES, Diagnostic, StaticReport, diagnostic
from repro.static.repo import repo_pass
from repro.static.source import GLOBAL_CACHE, ModuleSource, iter_python_files
from repro.static.waivers import WaiverIndex

#: Every selectable pass name, in execution order.
PASS_NAMES: tuple[str, ...] = ("repo", "det")


def default_root() -> Path:
    """The installed ``repro`` package directory — what CI scans."""
    return Path(__file__).resolve().parent.parent


def load_modules(
    roots: list[Path] | None = None,
    *,
    relative_to: Path | None = None,
) -> list[ModuleSource]:
    """Parse the scan set once (default: the ``repro`` package)."""
    if not roots:
        roots = [default_root()]
    scan_root = relative_to
    if scan_root is None:
        scan_root = roots[0] if roots[0].is_dir() else roots[0].parent
    return [
        GLOBAL_CACHE.load(path, root=scan_root)
        for path in iter_python_files(roots)
    ]


def check_paths(
    roots: list[Path] | None = None,
    *,
    relative_to: Path | None = None,
    passes: tuple[str, ...] | None = None,
    select: tuple[str, ...] | None = None,
    warn_unused_waivers: bool = True,
) -> StaticReport:
    """Run the static passes over files/directories (default: ``repro``).

    ``passes`` restricts which rule families run (``None`` = all);
    ``select`` keeps only findings whose code starts with one of the
    given prefixes, and a prefix that matches no registered code is an
    error (a typo must not pass the gate).  ``W000`` (unused waiver) is
    emitted only when every pass ran, since a partial run cannot know
    whether a waiver is stale.
    """
    selected = PASS_NAMES if passes is None else tuple(passes)
    for name in selected:
        if name not in PASS_NAMES:
            raise SanitizerError(
                f"unknown pass {name!r} (have: {', '.join(PASS_NAMES)})"
            )
    for prefix in select or ():
        if not any(code.startswith(prefix) for code in STATIC_CODES):
            raise SanitizerError(
                f"select prefix {prefix!r} matches no registered "
                "diagnostic code (see `repro check --codes`)"
            )
    modules = load_modules(roots, relative_to=relative_to)
    graph = CallGraph(modules)
    reachable = graph.worker_reachable()
    report_unused = warn_unused_waivers and set(selected) == set(PASS_NAMES)

    findings: list[Diagnostic] = []
    for module in modules:
        windex = WaiverIndex(module)
        if "repo" in selected:
            findings.extend(repo_pass(module, windex))
        if "det" in selected:
            findings.extend(det_pass(module, windex, graph, reachable))
        if not report_unused:
            continue
        findings.extend(
            diagnostic(
                "W000",
                f"waiver {waiver.text!r} suppressed nothing; "
                f"delete it or fix its code list",
                path=str(module.path),
                line=waiver.lineno,
                relpath=module.relpath,
            )
            for waiver in windex.unused()
        )

    if select:
        findings = [
            f for f in findings
            if any(f.code.startswith(prefix) for prefix in select)
        ]
    findings.sort(key=lambda f: (f.path, f.line, f.code))
    return StaticReport(tuple(findings), files_scanned=len(modules))
