"""Dead-link / dead-path / dead-flag checker for the Markdown docs.

Scans ``README.md`` and ``docs/*.md`` for five classes of rot:

1. **relative Markdown links** (``[text](path)``) whose target file or
   directory no longer exists;
2. **backtick path references** (`` `src/repro/...` ``, `` `tests/...`
   ``, `` `docs/...` ``, `` `examples/...` ``, `` `tools/...` ``)
   pointing at files that no longer exist;
3. **CLI flag references** (`` --flag `` inside backticks or console
   blocks) that no CLI parser registers any more; a flag that follows
   ``repro <subcommand>`` on the same line must be one that
   subcommand (or the root parser) accepts;
4. **API names** (`` `repro.runtime.Executor` ``: a whole backtick span
   that is a dotted ``repro.…`` name) that no longer import or resolve
   to an attribute;
5. **class members** (`` `StageTimings.seconds_for` `` or
   `` `RunContext.null()` ``: a whole backtick span naming a member of
   a class some ``repro`` module exports in ``__all__``) that are
   neither an attribute nor a dataclass field of that class.

External URLs are deliberately not fetched — CI must not depend on the
network.  Run standalone (exit 1 on any finding)::

    PYTHONPATH=src python tools/check_docs.py

or through the tier-1 suite (``tests/docs/test_docs.py``).
"""

from __future__ import annotations

import argparse
import dataclasses
import importlib
import inspect
import pkgutil
import re
from functools import lru_cache
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]

#: Markdown files the checker covers.
DOC_GLOBS = ("README.md", "docs/*.md")

_MD_LINK = re.compile(r"\[[^\]]*\]\(([^)#\s]+)(?:#[^)\s]*)?\)")
_BACKTICK = re.compile(r"`([^`\n]+)`")
#: Path-looking backtick content: starts with a known tree root and
#: names a concrete file or directory (no globs/placeholders).
_PATH_ROOTS = ("src/", "tests/", "docs/", "examples/", "tools/")
_FLAG = re.compile(r"(--[a-z][a-z0-9-]+)\b")
#: ``repro <subcommand>``, past any root flags (``repro --seed 3 study``).
_COMMAND = re.compile(
    r"\brepro(?:\s+--[a-z][a-z0-9-]*(?:\s+(?!-)\S+)?)*\s+([a-z][a-z0-9-]*)"
)
_API_NAME = re.compile(r"repro(?:\.[A-Za-z_][A-Za-z0-9_]*)+")
_MEMBER = re.compile(r"([A-Z][A-Za-z0-9_]*)\.([A-Za-z_][A-Za-z0-9_]*)(?:\(\))?")
#: Flag-like strings that are not CLI flags of this repo.
_FLAG_ALLOWLIST = frozenset((
    "--doctest-modules",  # pytest's own flag, quoted in the docs
))


def doc_files() -> list[Path]:
    files: list[Path] = []
    for pattern in DOC_GLOBS:
        files.extend(sorted(REPO_ROOT.glob(pattern)))
    return files


def registered_cli_flags() -> dict[str, frozenset[str]]:
    """Every ``--flag`` each repro CLI parser accepts, by subcommand.

    The root parser's flags are under ``""``; each subcommand's set
    includes them, since ``repro <subcommand>`` accepts both.
    """
    from repro.cli import build_parser

    def own(parser) -> frozenset[str]:
        return frozenset(
            opt
            for action in parser._actions
            for opt in action.option_strings
            if opt.startswith("--")
        )

    root = build_parser()
    flags = {"": own(root)}
    for action in root._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                flags[name] = own(sub) | flags[""]
    return flags


@lru_cache(maxsize=None)
def api_name_resolves(name: str) -> bool:
    """Whether ``name`` imports as a module or is an attribute of one.

    The longest importable prefix is the module; the rest of the name
    must resolve attribute by attribute from it.
    """
    parts = name.split(".")
    for split in range(len(parts), 0, -1):
        module_name = ".".join(parts[:split])
        try:
            target = importlib.import_module(module_name)
        except ModuleNotFoundError as error:
            missing = error.name or ""
            if not f"{module_name}.".startswith(f"{missing}."):
                raise  # the module exists but one of its imports does not
            continue
        for attribute in parts[split:]:
            try:
                target = getattr(target, attribute)
            except AttributeError:
                return False
        return True
    return False


@lru_cache(maxsize=None)
def exported_classes() -> dict[str, tuple[type, ...]]:
    """Every class some ``repro`` module lists in ``__all__``, by name."""
    import repro

    classes: dict[str, set[type]] = {}
    modules = [repro] + [
        importlib.import_module(info.name)
        for info in pkgutil.walk_packages(repro.__path__, "repro.")
        if not info.name.endswith("__main__")
    ]
    for module in modules:
        for name in getattr(module, "__all__", ()):
            value = getattr(module, name, None)
            if inspect.isclass(value):
                classes.setdefault(name, set()).add(value)
    return {name: tuple(found) for name, found in classes.items()}


def member_resolves(class_name: str, member: str) -> bool:
    """Whether ``Class.member`` names an attribute or a dataclass field
    of an exported class called ``class_name`` (``True`` when no
    exported class has that name: the span is not this check's)."""
    classes = exported_classes().get(class_name)
    if classes is None:
        return True
    return any(
        hasattr(cls, member) or (
            dataclasses.is_dataclass(cls)
            and member in {field.name for field in dataclasses.fields(cls)}
        )
        for cls in classes
    )


def _looks_like_path(text: str) -> bool:
    if any(ch in text for ch in " *<>{}$|"):
        return False
    return text.startswith(_PATH_ROOTS) or text in (
        "README.md", "ROADMAP.md", "CHANGES.md", "PAPER.md", "pytest.ini",
        "setup.py",
    )


def check_file(
    path: Path, cli_flags: dict[str, frozenset[str]]
) -> list[str]:
    """All findings for one Markdown file, as printable strings.

    ``cli_flags`` maps each subcommand (the root parser under ``""``)
    to the flags it accepts, as :func:`registered_cli_flags` builds it.
    """
    findings: list[str] = []
    any_parser = frozenset().union(*cli_flags.values())
    text = path.read_text()
    base = path.parent
    try:
        shown = path.relative_to(REPO_ROOT)
    except ValueError:  # a file outside the repo (tests plant these)
        shown = path

    def check_flags(number: int, line: str, span: str, offset: int) -> None:
        """Flags in ``span`` (at ``offset`` into ``line``) must be
        accepted by the subcommand last named before them on the line,
        or by some parser when none is."""
        commands = [
            (match.end(), match.group(1))
            for match in _COMMAND.finditer(line)
            if match.group(1) in cli_flags
        ]
        for match in _FLAG.finditer(span):
            flag = match.group(1)
            position = offset + match.start()
            command = None
            for end, name in commands:
                if end <= position:
                    command = name
            accepted = any_parser if command is None else cli_flags[command]
            if flag in accepted or flag in _FLAG_ALLOWLIST:
                continue
            where = "" if command is None else f" for `repro {command}`"
            findings.append(
                f"{shown}:{number}: unknown CLI flag ({flag}){where}"
            )

    in_fence = False
    for number, line in enumerate(text.splitlines(), start=1):
        if line.lstrip().startswith("```"):
            in_fence = not in_fence
            continue
        if in_fence:
            # Fenced code blocks (console transcripts): every flag on
            # the line is checked.
            check_flags(number, line, line, 0)
            continue
        for match in _MD_LINK.finditer(line):
            target = match.group(1)
            if "://" in target or target.startswith("mailto:"):
                continue
            resolved = (base / target).resolve()
            if not resolved.exists():
                findings.append(
                    f"{shown}:{number}: dead link "
                    f"({target})"
                )
        for match in _BACKTICK.finditer(line):
            content = match.group(1)
            check_flags(number, line, content, match.start(1))
            if _API_NAME.fullmatch(content) and not api_name_resolves(content):
                findings.append(
                    f"{shown}:{number}: unknown API name "
                    f"({content})"
                )
            member = _MEMBER.fullmatch(content)
            if member and not member_resolves(*member.groups()):
                findings.append(
                    f"{shown}:{number}: unknown class member "
                    f"({content})"
                )
            if _looks_like_path(content):
                candidate = content.rstrip("/")
                if not (REPO_ROOT / candidate).exists():
                    findings.append(
                        f"{shown}:{number}: dead path "
                        f"({content})"
                    )
    return findings


def check_all() -> list[str]:
    cli_flags = registered_cli_flags()
    findings: list[str] = []
    for path in doc_files():
        findings.extend(check_file(path, cli_flags))
    return findings


def main() -> int:
    files = doc_files()
    findings = check_all()
    for finding in findings:
        print(finding)
    print(
        f"checked {len(files)} file(s): "
        + ("OK" if not findings else f"{len(findings)} finding(s)")
    )
    return 1 if findings else 0


if __name__ == "__main__":
    raise SystemExit(main())
