"""The unified diagnostic model and stable-code registry.

Every static pass — repository style (``REPRO00x``), determinism
(``DET0xx``) and the framework's own ``W000`` — emits
:class:`Diagnostic` records carrying a stable code, a severity shared
with the input linter (:class:`repro.lint.diagnostics.Severity`) and
a location.  :data:`STATIC_CODES` is the
single registry all passes write their vocabulary into; the README
table and the ``repro check --codes`` listing render from it.
"""

from __future__ import annotations

import dataclasses

from repro.errors import SanitizerError
from repro.lint.diagnostics import Severity

__all__ = [
    "Diagnostic",
    "STATIC_CODES",
    "Severity",
    "StaticCode",
    "StaticReport",
    "register_codes",
]


@dataclasses.dataclass(frozen=True)
class StaticCode:
    """Registry entry for one static-analysis diagnostic code."""

    code: str
    severity: Severity
    title: str
    fix: str
    #: rule family, e.g. ``"determinism"`` or ``"repository"``; groups the
    #: documentation tables and the SARIF rule metadata
    domain: str


#: The full static-analysis vocabulary, populated by the rule modules
#: at import time via :func:`register_codes`.
STATIC_CODES: dict[str, StaticCode] = {}


def register_codes(*infos: StaticCode) -> None:
    """Add codes to :data:`STATIC_CODES` (idempotent, clash-checked)."""
    for info in infos:
        existing = STATIC_CODES.get(info.code)
        if existing is not None and existing != info:
            raise SanitizerError(
                f"static code {info.code} registered twice with different "
                f"meanings ({existing.title!r} vs {info.title!r})"
            )
        STATIC_CODES[info.code] = info


@dataclasses.dataclass(frozen=True)
class Diagnostic:
    """One finding of a static pass.

    ``path`` is the path as scanned (what the user sees), ``relpath``
    the scan-root-relative POSIX path (what SARIF locations use).
    """

    code: str
    severity: Severity
    message: str
    path: str
    line: int
    relpath: str = ""

    def format(self) -> str:
        return (
            f"{self.path}:{self.line}: {self.code} "
            f"{self.severity}: {self.message}"
        )

    def as_dict(self) -> dict[str, object]:
        return {
            "code": self.code,
            "severity": str(self.severity),
            "message": self.message,
            "path": self.path,
            "relpath": self.relpath,
            "line": self.line,
        }


def diagnostic(
    code: str,
    message: str,
    *,
    path: str,
    line: int,
    relpath: str = "",
    severity: Severity | None = None,
) -> Diagnostic:
    """Build a :class:`Diagnostic`, defaulting severity from the registry."""
    info = STATIC_CODES[code]
    return Diagnostic(
        code=code,
        severity=info.severity if severity is None else severity,
        message=message,
        path=path,
        line=line,
        relpath=relpath,
    )


@dataclasses.dataclass(frozen=True)
class StaticReport:
    """The ordered findings of one ``repro check`` run."""

    findings: tuple[Diagnostic, ...]
    files_scanned: int = 0

    @property
    def max_severity(self) -> Severity | None:
        if not self.findings:
            return None
        return max(f.severity for f in self.findings)

    def has(self, code: str) -> bool:
        return any(f.code == code for f in self.findings)

    def __iter__(self):  # type: ignore[no-untyped-def]
        return iter(self.findings)

    def __len__(self) -> int:
        return len(self.findings)

    @property
    def exit_code(self) -> int:
        """Process exit code mirroring the worst severity (0/1/2)."""
        worst = self.max_severity
        if worst is None or worst is Severity.INFO:
            return 0
        return 1 if worst is Severity.WARNING else 2

    def summary(self) -> str:
        if not self.findings:
            return f"clean ({self.files_scanned} files)"
        counts = []
        for severity, noun in (
            (Severity.ERROR, "error"),
            (Severity.WARNING, "warning"),
            (Severity.INFO, "info note"),
        ):
            n = sum(1 for f in self.findings if f.severity is severity)
            if n:
                counts.append(f"{n} {noun}{'s' if n != 1 else ''}")
        return ", ".join(counts) + f" ({self.files_scanned} files)"

    def format(self) -> str:
        lines = [f.format() for f in self.findings]
        lines.append(f"static analysis: {self.summary()}")
        return "\n".join(lines)
