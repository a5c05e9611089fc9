"""Lint findings: what every rule reports.

A finding is one violation at one source location.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["Finding"]


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation at one source location.

    ``path`` is repo-relative POSIX so findings render identically
    regardless of the machine the linter ran on.
    """

    path: str
    line: int
    rule: str
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line} {self.rule} {self.message}"

