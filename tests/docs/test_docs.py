"""The docs-check guarantees: no dead links, paths or flags in the docs.

Wraps ``tools/check_docs.py`` (which CI's ``docs-check`` job also runs
standalone) so documentation rot fails the tier-1 suite with the exact
file:line findings.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import pytest

_TOOLS_DIR = Path(__file__).resolve().parents[2] / "tools"


@pytest.fixture(scope="module")
def check_docs():
    spec = importlib.util.spec_from_file_location(
        "check_docs", _TOOLS_DIR / "check_docs.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules.setdefault("check_docs", module)
    spec.loader.exec_module(module)
    return module


def test_docs_cover_the_expected_files(check_docs):
    names = [path.name for path in check_docs.doc_files()]
    assert "README.md" in names
    assert "ARCHITECTURE.md" in names
    assert "SCENARIOS.md" in names


def test_cli_flag_harvest_sees_subcommands(check_docs):
    flags = check_docs.registered_cli_flags()
    # One flag per layer of the parser tree: root, study, evolve, bench.
    assert "--seed" in flags[""]
    assert {"--seed", "--fault-profile", "--evolution-policy",
            "--epochs"} <= flags["study"]
    assert "--policy" in flags["evolve"]
    assert "--check-scale" in flags["bench"]


def test_checker_flags_planted_rot(check_docs, tmp_path):
    planted = tmp_path / "planted.md"
    planted.write_text(
        "A [dead](no/such/file.md) link, a dead path "
        "`src/repro/never/was.py`, and a flag `--frobnicate-sites`.\n"
        "But `--seed` and [real](%s) are fine.\n"
        "```console\n"
        "$ python -m repro study --sites 60 --renamed-flag 3\n"
        "```\n"
        % (check_docs.REPO_ROOT / "README.md")
    )
    findings = check_docs.check_file(
        planted, check_docs.registered_cli_flags()
    )
    kinds = sorted(finding.split(": ")[1].split(" (")[0] for finding in findings)
    assert kinds == [
        "dead link", "dead path", "unknown CLI flag", "unknown CLI flag",
    ], findings
    assert any("--renamed-flag" in finding for finding in findings)


def test_repo_docs_are_clean(check_docs):
    findings = check_docs.check_all()
    assert not findings, "\n".join(findings)
