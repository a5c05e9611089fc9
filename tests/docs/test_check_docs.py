"""Fixture-driven tests for ``tools/check_docs.py`` itself.

``tests/docs/test_docs.py`` proves the *real* docs are clean; these
tests prove the checker would actually catch each class of rot — a
dead Markdown link, a dead backtick path, a dead CLI flag, a dead API
name, a dead class member — against a planted fixture docs tree, and
that the healthy forms pass.
"""

from __future__ import annotations

import importlib.util
import sys
import textwrap
from pathlib import Path

import pytest

_TOOLS_DIR = Path(__file__).resolve().parents[2] / "tools"

#: Flags by subcommand, the root parser's under ``""``, as
#: ``registered_cli_flags`` builds them.
_FLAGS = {
    "": frozenset({"--seed"}),
    "study": frozenset({"--seed", "--executor"}),
    "bench": frozenset({"--seed", "--check"}),
    "lint": frozenset({"--seed"}),
}


@pytest.fixture()
def check_docs():
    spec = importlib.util.spec_from_file_location(
        "check_docs_under_test", _TOOLS_DIR / "check_docs.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules["check_docs_under_test"] = module
    spec.loader.exec_module(module)
    yield module
    sys.modules.pop("check_docs_under_test", None)


@pytest.fixture()
def fake_repo(tmp_path, check_docs, monkeypatch):
    """A throwaway repo root the checker is pointed at."""
    (tmp_path / "docs").mkdir()
    (tmp_path / "src" / "repro").mkdir(parents=True)
    (tmp_path / "src" / "repro" / "real.py").write_text("x = 1\n")
    (tmp_path / "docs" / "REAL.md").write_text("# real\n")
    monkeypatch.setattr(check_docs, "REPO_ROOT", tmp_path)
    return tmp_path


def _write(root: Path, rel: str, body: str) -> Path:
    path = root / rel
    path.write_text(textwrap.dedent(body))
    return path


class TestEachRotClassIsCaught:
    def test_dead_link(self, fake_repo, check_docs):
        path = _write(fake_repo, "README.md", """\
            See [the design](docs/GONE.md) for details.
        """)
        (finding,) = check_docs.check_file(path, _FLAGS)
        assert "dead link" in finding
        assert "docs/GONE.md" in finding
        assert "README.md:1" in finding

    def test_dead_path(self, fake_repo, check_docs):
        path = _write(fake_repo, "README.md", """\
            The classifier lives in `src/repro/vanished.py`.
        """)
        (finding,) = check_docs.check_file(path, _FLAGS)
        assert "dead path" in finding
        assert "src/repro/vanished.py" in finding

    def test_dead_cli_flag_in_console_block(self, fake_repo, check_docs):
        path = _write(fake_repo, "README.md", """\
            Run it:

            ```console
            $ repro study --retired-flag 7
            ```
        """)
        (finding,) = check_docs.check_file(path, _FLAGS)
        assert "unknown CLI flag" in finding
        assert "--retired-flag" in finding

    def test_dead_cli_flag_in_backticks(self, fake_repo, check_docs):
        path = _write(fake_repo, "README.md", """\
            Tune it with `--retired-flag`.
        """)
        (finding,) = check_docs.check_file(path, _FLAGS)
        assert "--retired-flag" in finding

    def test_flag_of_another_subcommand(self, fake_repo, check_docs):
        path = _write(fake_repo, "README.md", """\
            ```console
            $ repro lint --check
            ```

            CI runs `repro --seed 3 lint --check`.
        """)
        findings = check_docs.check_file(path, _FLAGS)
        assert findings == [
            "README.md:2: unknown CLI flag (--check) for `repro lint`",
            "README.md:5: unknown CLI flag (--check) for `repro lint`",
        ]

    @pytest.mark.parametrize("name", [
        "repro.runtime.null_timings",  # a removed attribute
        "repro.har.store",  # a removed module
        "repro.runtime.StageTimings.record",  # a removed method
    ])
    def test_dead_api_name(self, fake_repo, check_docs, name):
        path = _write(fake_repo, "README.md", f"""\
            Call `{name}` first.
        """)
        (finding,) = check_docs.check_file(path, _FLAGS)
        assert "unknown API name" in finding
        assert name in finding
        assert "README.md:1" in finding

    @pytest.mark.parametrize("span", [
        "DatasetSummary.merge",  # a removed classmethod
        "RunContext.is_quarantined()",  # a removed method, called
    ])
    def test_dead_class_member(self, fake_repo, check_docs, span):
        path = _write(fake_repo, "README.md", f"""\
            Then `{span}` folds it.
        """)
        (finding,) = check_docs.check_file(path, _FLAGS)
        assert "unknown class member" in finding
        assert span in finding
        assert "README.md:1" in finding


class TestHealthyFormsPass:
    def test_clean_doc_has_no_findings(self, fake_repo, check_docs):
        path = _write(fake_repo, "README.md", """\
            See [the design](docs/REAL.md); code in `src/repro/real.py`.

            ```console
            $ repro study --seed 7 --executor thread
            ```

            External [link](https://example.org/x) is never fetched.

            APIs: `repro.runlog`, `repro.runtime.Executor`,
            `repro.runtime.StageTimings.seconds_for`; prose such as
            `repro.foo()` or `repro study` is not a bare name.

            Members: `StageTimings.seconds_for`, `RunContext.null()`, a
            dataclass field without a default `DatasetSummary.name`;
            `Unexported.anything` names no class this check knows.
        """)
        assert check_docs.check_file(path, _FLAGS) == []

    def test_allowlisted_foreign_flags_pass(self, fake_repo, check_docs):
        path = _write(fake_repo, "README.md", """\
            ```console
            $ pytest --doctest-modules src/repro
            ```
        """)
        assert check_docs.check_file(path, _FLAGS) == []

    def test_flag_of_the_named_subcommand(self, fake_repo, check_docs):
        path = _write(fake_repo, "README.md", """\
            ```console
            $ repro bench --check --seed 7
            ```

            `--check` belongs to `repro bench`, not to `repro lint`.
        """)
        assert check_docs.check_file(path, _FLAGS) == []

    def test_placeholder_paths_are_not_flagged(self, fake_repo, check_docs):
        path = _write(fake_repo, "README.md", """\
            Artefacts land in `src/repro/<stage>/outputs` and
            `tests/golden/*.txt`.
        """)
        assert check_docs.check_file(path, _FLAGS) == []


class TestDriver:
    def test_doc_globs_drive_discovery(self, fake_repo, check_docs,
                                       monkeypatch):
        _write(fake_repo, "README.md", "ok\n")
        _write(fake_repo, "docs/NOTES.md", "see `src/repro/vanished.py`\n")
        monkeypatch.setattr(
            check_docs, "DOC_GLOBS", ("README.md", "docs/*.md")
        )
        files = check_docs.doc_files()
        assert [f.name for f in files] == ["README.md", "NOTES.md", "REAL.md"]

    def test_registered_cli_flags_sees_subcommands(self, check_docs):
        flags = check_docs.registered_cli_flags()
        # One root flag, one bench-only flag: harvesting recursed into
        # subparsers and kept each one's flags apart.
        assert "--seed" in flags[""]
        assert "--check-scale" in flags["bench"]
        assert "--check-scale" not in flags["lint"]
        assert "--seed" in flags["lint"]
