"""The lint driver: discover sources, run rules, drop inline ignores.

``repro lint`` exits nonzero on any finding.  Code must ship clean or
carry an inline ``# repro-lint: ignore[rule]`` exemption at the
offending line; there is no other way to exempt a finding.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Protocol, Sequence

from repro.lint.findings import Finding
from repro.lint.source import SourceModule

__all__ = ["LintRule", "Project", "run_lint"]


class LintRule(Protocol):
    """One rule family: inspects the whole project, yields findings."""

    rule_id: str

    def check(self, project: "Project") -> Iterable[Finding]:
        ...


@dataclass
class Project:
    """Every parsed module the linter looks at, keyed by relative path."""

    root: Path
    modules: list[SourceModule] = field(default_factory=list)

    @classmethod
    def load(cls, root: Path, paths: Sequence[str | Path]) -> "Project":
        root = root.resolve()
        files: list[Path] = []
        for raw in paths:
            target = (root / raw).resolve()
            if target.is_dir():
                files.extend(sorted(target.rglob("*.py")))
            elif target.suffix == ".py":
                files.append(target)
            else:
                raise FileNotFoundError(f"nothing to lint at {raw!r}")
        seen: set[Path] = set()
        modules = []
        for path in files:
            if path in seen:
                continue
            seen.add(path)
            modules.append(SourceModule.load(path, root))
        return cls(root=root, modules=modules)

    def module(self, rel: str) -> SourceModule | None:
        for candidate in self.modules:
            if candidate.rel == rel:
                return candidate
        return None


def run_lint(project: Project, rules: Sequence[LintRule]) -> list[Finding]:
    """Every rule's findings, sorted, minus those ignored inline."""
    findings: list[Finding] = []
    by_rel = {module.rel: module for module in project.modules}
    for rule in rules:
        for finding in rule.check(project):
            module = by_rel.get(finding.path)
            if module is not None and module.is_ignored(
                finding.line, finding.rule
            ):
                continue
            findings.append(finding)
    findings.sort()
    return findings
