"""Emitters: code table, JSON and SARIF renderings of a report.

The text rendering lives on :class:`~repro.static.model.StaticReport`
itself (``.format()``); this module holds the machine-readable
formats: the full-registry table behind ``repro check --codes``, the
JSON document behind ``--format json`` and a minimal SARIF 2.1.0
document (``--format sarif``) that code-review UIs ingest directly.
"""

from __future__ import annotations

import json

from repro.lint.diagnostics import Severity
from repro.static.model import STATIC_CODES, StaticReport

__all__ = ["code_table", "report_as_json", "report_as_sarif"]

#: Order the domains render in — mirrors pass execution order.
_DOMAIN_ORDER = ("repository", "determinism", "framework")


def code_table() -> str:
    """The full static-code registry as a fixed-width table."""
    lines: list[str] = []
    domains = list(_DOMAIN_ORDER) + sorted(
        {info.domain for info in STATIC_CODES.values()}
        - set(_DOMAIN_ORDER)
    )
    for domain in domains:
        infos = [
            info for info in STATIC_CODES.values() if info.domain == domain
        ]
        if not infos:
            continue
        lines.append(f"[{domain}]")
        lines.append(f"{'code':8s} {'severity':8s} meaning")
        for info in sorted(infos, key=lambda i: i.code):
            lines.append(
                f"{info.code:8s} {str(info.severity):8s} {info.title}"
            )
            lines.append(f"{'':8s} {'':8s}   fix: {info.fix}")
        lines.append("")
    return "\n".join(lines).rstrip()


def report_as_json(report: StaticReport) -> str:
    """Machine-readable rendering for ``repro check --format json``."""
    return json.dumps(
        {
            "files_scanned": report.files_scanned,
            "findings": [f.as_dict() for f in report.findings],
            "summary": report.summary(),
            "exit_code": report.exit_code,
        },
        indent=2,
    )


_SARIF_LEVELS = {
    Severity.ERROR: "error",
    Severity.WARNING: "warning",
    Severity.INFO: "note",
}

_SARIF_SCHEMA = (
    "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/"
    "Schemata/sarif-schema-2.1.0.json"
)


def report_as_sarif(report: StaticReport) -> str:
    """Minimal SARIF 2.1.0 document for ``repro check --format sarif``."""
    used_codes = sorted({f.code for f in report.findings})
    rules = []
    for code in used_codes:
        info = STATIC_CODES.get(code)
        if info is None:
            rules.append({"id": code})
            continue
        rules.append(
            {
                "id": code,
                "shortDescription": {"text": info.title},
                "help": {"text": info.fix},
                "defaultConfiguration": {
                    "level": _SARIF_LEVELS[info.severity],
                },
                "properties": {"domain": info.domain},
            }
        )
    results = []
    for f in report.findings:
        results.append(
            {
                "ruleId": f.code,
                "level": _SARIF_LEVELS[f.severity],
                "message": {"text": f.message},
                "locations": [
                    {
                        "physicalLocation": {
                            "artifactLocation": {
                                "uri": f.relpath or f.path,
                            },
                            "region": {"startLine": max(f.line, 1)},
                        }
                    }
                ],
            }
        )
    document = {
        "$schema": _SARIF_SCHEMA,
        "version": "2.1.0",
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": "repro-check",
                        "rules": rules,
                    }
                },
                "results": results,
            }
        ],
    }
    return json.dumps(document, indent=2)
