"""Static analysis of the simulator sources (``repro check``).

One core hosts both source-level gates of the repository: file
loading and parse caching (:mod:`repro.static.source`), waiver-aware
AST rule visitors (:mod:`repro.static.visitors`), the cross-module
call graph (:mod:`repro.static.callgraph`), a single
:class:`Diagnostic` model with stable codes and severities
(:mod:`repro.static.model`) and text/JSON/SARIF emitters
(:mod:`repro.static.emit`).

Two rule families run on the core (:mod:`repro.static.engine`):

* ``REPRO00x`` repository style rules (:mod:`repro.static.repo`);
* ``DET0xx`` determinism rules (:mod:`repro.static.det`), which back
  the pool's contract that results are bit-identical for any worker
  count.

A finding is waived for one line with a trailing ``# repro:
allow[CODE] justification`` comment; waivers that suppress nothing
are themselves reported as ``W000``.
"""

from __future__ import annotations

from repro.static.emit import code_table, report_as_json, report_as_sarif
from repro.static.engine import PASS_NAMES, check_paths, default_root
from repro.static.model import (
    STATIC_CODES,
    Diagnostic,
    Severity,
    StaticCode,
    StaticReport,
)

__all__ = [
    "Diagnostic",
    "PASS_NAMES",
    "STATIC_CODES",
    "Severity",
    "StaticCode",
    "StaticReport",
    "check_paths",
    "code_table",
    "default_root",
    "report_as_json",
    "report_as_sarif",
]
