"""Source-file loading, parsing and caching for the static passes.

Every pass of one ``repro check`` run shares a single parsed
representation per file (:class:`ModuleSource`): the raw text, the
split lines, the AST and a content hash.  :class:`SourceCache`
memoises parses keyed by path and *content hash* — not mtime, which
CI checkouts and archive extraction make unreliable — so repeated
analyses in one process (the test suite, an editor integration) never
re-parse an unchanged file.
"""

from __future__ import annotations

import ast
import dataclasses
import hashlib
from pathlib import Path
from typing import Iterator

from repro.errors import SanitizerError


def content_hash_of(source: str) -> str:
    """Stable identity of a module's text (hex blake2b, 32 chars)."""
    return hashlib.blake2b(
        source.encode("utf-8"), digest_size=16
    ).hexdigest()


@dataclasses.dataclass
class ModuleSource:
    """One parsed source file plus the context the rules need."""

    path: Path
    #: path relative to the scan root, POSIX-style (``core/engine.py``);
    #: rules use it for module-scoped exemptions
    relpath: str
    source: str
    lines: list[str]
    tree: ast.Module
    #: blake2b hex digest of ``source`` — the identity
    #: :class:`SourceCache` keys its memo on
    content_hash: str = ""

    @classmethod
    def parse(cls, path: Path, root: Path | None = None) -> "ModuleSource":
        try:
            source = path.read_text(encoding="utf-8")
        except OSError as exc:
            raise SanitizerError(f"cannot read {path}: {exc}")
        return cls.parse_text(source, path, root=root)

    @classmethod
    def parse_text(
        cls, source: str, path: Path, root: Path | None = None
    ) -> "ModuleSource":
        try:
            tree = ast.parse(source, filename=str(path))
        except SyntaxError as exc:
            raise SanitizerError(f"{path}: not parseable python: {exc}")
        return cls(
            path=path,
            relpath=relpath_of(path, root),
            source=source,
            lines=source.splitlines(),
            tree=tree,
            content_hash=content_hash_of(source),
        )

    def line_text(self, lineno: int) -> str:
        """1-based source line (empty for out-of-range linenos)."""
        if 1 <= lineno <= len(self.lines):
            return self.lines[lineno - 1]
        return ""


def relpath_of(path: Path, root: Path | None) -> str:
    """Scan-root-relative POSIX path (bare name when outside the root)."""
    if root is not None:
        try:
            return path.resolve().relative_to(root.resolve()).as_posix()
        except ValueError:
            return path.name
    return path.name


def iter_python_files(roots: list[Path]) -> Iterator[Path]:
    """Every ``.py`` file under the given files/directories, sorted."""
    for root in roots:
        if root.is_file():
            yield root
        elif root.is_dir():
            yield from sorted(root.rglob("*.py"))
        else:
            raise SanitizerError(f"no such file or directory: {root}")


class SourceCache:
    """Content-hash-keyed memo of parsed modules.

    A process-wide instance backs the framework entry points so the
    CLI and the tests reuse one parse per file.  Each load re-reads the file's bytes and hashes them — a
    ``touch`` or a fresh checkout with scrambled mtimes never
    invalidates anything, while any content change always does.
    ``relpath`` is recomputed per scan root because the same file may
    be scanned under different anchors.
    """

    def __init__(self) -> None:
        self._memo: dict[Path, ModuleSource] = {}

    def load(self, path: Path, root: Path | None = None) -> ModuleSource:
        key = path.resolve()
        try:
            source = path.read_text(encoding="utf-8")
        except OSError as exc:
            raise SanitizerError(f"cannot read {path}: {exc}")
        digest = content_hash_of(source)
        module = self._memo.get(key)
        if module is None or module.content_hash != digest:
            module = ModuleSource.parse_text(source, path, root=root)
            self._memo[key] = module
        wanted = relpath_of(path, root)
        if module.relpath != wanted:
            module = dataclasses.replace(module, relpath=wanted)
        return module

    def clear(self) -> None:
        self._memo.clear()


#: The process-wide parse cache shared by every framework entry point.
GLOBAL_CACHE = SourceCache()
