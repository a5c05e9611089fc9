"""Dead-link / dead-path / dead-flag checker for the Markdown docs.

Scans ``README.md`` and ``docs/*.md`` for five classes of rot:

1. **relative Markdown links** (``[text](path)``) whose target file or
   directory no longer exists;
2. **backtick path references** (`` `src/repro/...` ``, `` `tests/...`
   ``, `` `docs/...` ``, `` `examples/...` ``, `` `tools/...` ``)
   pointing at files that no longer exist;
3. **CLI flag references** (`` --flag `` inside backticks or console
   blocks) that no CLI parser registers any more;
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


def registered_cli_flags() -> set[str]:
    """Every ``--flag`` any repro CLI parser accepts."""
    from repro.cli import build_parser

    flags: set[str] = set()

    def harvest(parser) -> None:
        for action in parser._actions:
            flags.update(
                opt for opt in action.option_strings if opt.startswith("--")
            )
            choices = getattr(action, "choices", None)
            if isinstance(choices, dict):  # a subparsers action
                for sub in choices.values():
                    if hasattr(sub, "_actions"):
                        harvest(sub)

    harvest(build_parser())
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


def check_file(path: Path, cli_flags: set[str]) -> list[str]:
    """All findings for one Markdown file, as printable strings."""
    findings: list[str] = []
    text = path.read_text()
    base = path.parent
    try:
        shown = path.relative_to(REPO_ROOT)
    except ValueError:  # a file outside the repo (tests plant these)
        shown = path

    in_fence = False
    for number, line in enumerate(text.splitlines(), start=1):
        if line.lstrip().startswith("```"):
            in_fence = not in_fence
            continue
        if in_fence:
            # Fenced code blocks (console transcripts): every flag on
            # the line must be one some parser registers.
            for flag in _FLAG.findall(line):
                if flag not in cli_flags and flag not in _FLAG_ALLOWLIST:
                    findings.append(
                        f"{shown}:{number}: unknown "
                        f"CLI flag ({flag})"
                    )
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
            for flag in _FLAG.findall(content):
                if flag not in cli_flags and flag not in _FLAG_ALLOWLIST:
                    findings.append(
                        f"{shown}:{number}: unknown "
                        f"CLI flag ({flag})"
                    )
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
