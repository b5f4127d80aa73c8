"""Per-line waiver comments, shared by every static pass.

The one syntax names the code(s) being waived plus an (encouraged)
human justification::

    rng = np.random.default_rng()  # repro: allow[DET001] replay tool, seeded upstream

Multiple codes may share one comment (``allow[DET001,REPRO002]``);
silencing one rule never silences the others on that line, and there
is no blanket form.

A waiver applies to its own line or — so justifications stay readable
— to a report on the first code line below a pure-comment block
containing it.  :class:`WaiverIndex` tracks which comments actually
suppressed a finding; the framework reports the stale remainder as
``W000 unused-waiver`` so dead waivers cannot rot in the tree.

Comments are discovered with :mod:`tokenize`, not substring search, so
waiver syntax quoted inside docstrings or string literals is ignored.
"""

from __future__ import annotations

import dataclasses
import io
import re
import tokenize

from repro.lint.diagnostics import Severity
from repro.static.model import StaticCode, register_codes
from repro.static.source import ModuleSource

__all__ = ["Waiver", "WaiverIndex"]

register_codes(
    StaticCode(
        "W000", Severity.WARNING, "unused waiver comment",
        "the waived diagnostic no longer fires here; delete the "
        "comment (or fix its code list) so waivers stay an accurate "
        "audit trail",
        domain="framework",
    ),
)

#: the waiver syntax: ``repro: allow[...]`` naming one or more codes
_WAIVER = re.compile(r"#\s*repro:\s*allow\[([A-Z0-9,\s]+)\]")


@dataclasses.dataclass
class Waiver:
    """One waiver comment found in a module."""

    lineno: int
    codes: frozenset[str]
    text: str
    used: bool = False


def _parse_waiver(lineno: int, text: str) -> Waiver | None:
    """The waiver in comment ``text``, or ``None`` if it holds none."""
    codes = {
        code.strip()
        for match in _WAIVER.finditer(text)
        for code in match.group(1).split(",")
        if code.strip()
    }
    if not codes:
        return None
    return Waiver(lineno, frozenset(codes), text.strip())


class WaiverIndex:
    """All waiver comments of one module, with usage tracking.

    :meth:`waives` is the single query every rule goes through; it
    marks the matching comment as used, so after all passes have run
    :meth:`unused` is exactly the stale set ``W000`` should report.
    """

    def __init__(self, module: ModuleSource):
        self.module = module
        self._by_line: dict[int, Waiver] = {}
        for lineno, text in _iter_comments(module):
            waiver = _parse_waiver(lineno, text)
            if waiver is not None:
                self._by_line[lineno] = waiver
        self.waivers = list(self._by_line.values())

    # ------------------------------------------------------------------
    def waives(self, lineno: int, code: str) -> bool:
        """Is a report of ``code`` on ``lineno`` waived?  (Marks use.)

        A waiver matches on the report's own line, or anywhere in the
        pure-comment block immediately above it (where a justification
        is readable).
        """
        if self._match(lineno, code):
            return True
        above = lineno - 1
        while above >= 1:
            text = self.module.line_text(above).strip()
            if not text.startswith("#"):
                break
            if self._match(above, code):
                return True
            above -= 1
        return False

    def _match(self, lineno: int, code: str) -> bool:
        waiver = self._by_line.get(lineno)
        if waiver is None or code not in waiver.codes:
            return False
        waiver.used = True
        return True

    def unused(self) -> list[Waiver]:
        """Waiver comments that suppressed nothing, in line order."""
        return [w for w in self.waivers if not w.used]


def _iter_comments(module: ModuleSource) -> list[tuple[int, str]]:
    """``(lineno, text)`` for every real comment token of the module."""
    # every waiver contains "allow"; most modules have none, and
    # skipping their tokenize pass keeps `repro check` fast
    if "allow" not in module.source:
        return []
    comments: list[tuple[int, str]] = []
    try:
        tokens = tokenize.generate_tokens(io.StringIO(module.source).readline)
        for token in tokens:
            if token.type == tokenize.COMMENT:
                comments.append((token.start[0], token.string))
    except (tokenize.TokenError, IndentationError):  # pragma: no cover
        # the file parsed as AST, so this is at most a trailing
        # continuation quirk; fall back to raw line scanning
        comments = [
            (i, line) for i, line in enumerate(module.lines, start=1)
            if "#" in line
        ]
    return comments
