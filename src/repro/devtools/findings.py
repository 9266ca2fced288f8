"""The unit of lint output: one finding at one source location."""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Optional


@dataclass(frozen=True)
class Fix:
    """One mechanical rewrite: replace a source span with new text.

    Spans use ast's coordinates — 1-based lines, 0-based columns — and may
    live in a *different* file than the finding.  ``repro lint --fix``
    applies these.
    """

    file: str
    start_line: int
    start_col: int
    end_line: int
    end_col: int
    replacement: str


@dataclass(frozen=True)
class Finding:
    """One rule violation at one location.

    ``snippet`` is the stripped source line the finding anchors to; it feeds
    the baseline fingerprint so recorded findings survive unrelated edits
    that only shift line numbers.  ``fix`` carries the autofix when the
    rule knows the mechanical rewrite.
    """

    rule: str
    file: str
    line: int
    message: str
    snippet: str = field(default="", compare=False)
    fix: Optional[Fix] = field(default=None, compare=False)

    @property
    def fingerprint(self) -> str:
        """Stable identity for baselining: rule + file + source text."""
        digest = hashlib.sha256()
        digest.update(self.rule.encode("ascii"))
        digest.update(b"\x00")
        digest.update(self.file.encode("utf-8"))
        digest.update(b"\x00")
        digest.update(self.snippet.encode("utf-8"))
        return digest.hexdigest()[:16]

    def format(self) -> str:
        """``file:line: RULE message`` — the human output line."""
        return f"{self.file}:{self.line}: {self.rule} {self.message}"

    def to_dict(self) -> dict:
        """JSON-output record (one per finding)."""
        return {
            "rule": self.rule,
            "file": self.file,
            "line": self.line,
            "message": self.message,
            "fingerprint": self.fingerprint,
        }

    def sort_key(self) -> tuple:
        return (self.file, self.line, self.rule, self.message)
