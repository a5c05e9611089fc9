"""Engine semantics: findings come back sorted, ignores filter, the CLI
exits right."""

from __future__ import annotations

import dataclasses

import pytest

import repro.cli
from repro.lint import Finding, Project, run_lint
from repro.lint.rules import DeterminismRule, default_rules


@dataclasses.dataclass
class StubRule:
    findings: list
    rule_id: str = "stub"

    def check(self, project):
        return list(self.findings)


def _finding(path="mod.py", line=3, rule="stub", message="broken"):
    return Finding(path=path, line=line, rule=rule, message=message)


class TestRunLint:
    def test_finding_is_reported(self, make_project):
        project = make_project({"mod.py": "x = 1\n"})
        assert run_lint(project, [StubRule([_finding()])]) == [_finding()]

    def test_findings_come_back_sorted(self, make_project):
        project = make_project({"mod.py": "x = 1\n"})
        late, early = _finding(line=9), _finding(line=2)
        other = _finding(path="a.py")
        assert run_lint(
            project, [StubRule([late, early]), StubRule([other])]
        ) == [other, early, late]


class TestProjectLoad:
    def test_recurses_sorted_and_deduped(self, make_project):
        project = make_project({
            "b/two.py": "x = 2\n",
            "a/one.py": "x = 1\n",
        })
        assert [m.rel for m in project.modules] == ["a/one.py", "b/two.py"]

    def test_single_file_path(self, tmp_path):
        (tmp_path / "solo.py").write_text("x = 1\n")
        project = Project.load(tmp_path, ["solo.py"])
        assert [m.rel for m in project.modules] == ["solo.py"]

    def test_missing_path_is_loud(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            Project.load(tmp_path, ["nowhere"])


class TestCli:
    @pytest.fixture()
    def project_dir(self, tmp_path, monkeypatch):
        (tmp_path / "clean.py").write_text("x = 1\n")
        (tmp_path / "dirty.py").write_text(
            "import time\n\n\ndef stamp():\n    return time.time()\n"
        )
        monkeypatch.chdir(tmp_path)
        return tmp_path

    def test_new_findings_exit_nonzero(self, project_dir, capsys):
        code = repro.cli.main(["lint", "dirty.py"])
        assert code == 1
        out = capsys.readouterr().out
        assert "dirty.py:5 determinism" in out

    def test_clean_tree_exits_zero(self, project_dir, capsys):
        assert repro.cli.main(["lint", "clean.py"]) == 0
        assert capsys.readouterr().out == ""

    def test_check_flag_is_unknown(self, project_dir, capsys):
        with pytest.raises(SystemExit) as exit_:
            repro.cli.main(["lint", "--check"])
        assert exit_.value.code == 2
        assert "unrecognized arguments: --check" in capsys.readouterr().err


class TestRepoIsClean:
    """The tree lints clean — the acceptance bar."""

    def test_whole_repo_zero_findings(self, repo_root):
        project = Project.load(repo_root, ["src", "tools"])
        findings = run_lint(project, default_rules())
        assert findings == [], [f.render() for f in findings]

    def test_default_rules_cover_all_four_families(self):
        assert sorted(rule.rule_id for rule in default_rules()) == [
            "cache-key", "determinism", "shared-state", "typed-errors",
        ]

    def test_inline_ignore_rule_mismatch_still_fires(self, make_project):
        project = make_project({"mod.py": """\
            import time

            def stamp():
                return time.time()  # repro-lint: ignore[]
        """})
        # Empty bracket = wildcard: documents the grammar's edge case.
        assert run_lint(project, [DeterminismRule()]) == []
