"""Tests for the CLI and the Markdown exporter."""

from __future__ import annotations

import argparse

import pytest

from repro.analysis.export import table_to_markdown
from repro.analysis.tables import table11
from repro.cli import build_parser, main
from repro.evolve.policy import POLICIES
from repro.faults.plan import FAULTS
from repro.h3.plan import H3_PROFILES


class TestCli:
    def test_parser_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_study_headline(self, capsys):
        assert main(["study", "--sites", "60", "--headline"]) == 0
        out = capsys.readouterr().out
        assert "Headline statistics" in out

    def test_study_single_table(self, capsys):
        assert main(["study", "--sites", "60", "--table", "11"]) == 0
        out = capsys.readouterr().out
        assert "Table 11" in out
        assert "RWTH Aachen University" in out

    def test_study_unknown_table(self, capsys):
        assert main(["study", "--sites", "60", "--table", "99"]) == 2

    def test_audit_default_site(self, capsys):
        assert main(["audit", "--sites", "60"]) == 0
        out = capsys.readouterr().out
        assert "HTTP/2 connections" in out

    def test_audit_unreachable(self, capsys):
        assert main(["audit", "no-such-site.example", "--sites", "30"]) == 1

    def test_dnsstudy(self, capsys):
        assert main(["dnsstudy", "--days", "0.1", "--sites", "30"]) == 0
        assert "Figure 3" in capsys.readouterr().out

    def test_mitigations(self, capsys):
        assert main(["mitigations", "--sites", "50"]) == 0
        assert "coordinated-dns" in capsys.readouterr().out

    def test_perf(self, capsys):
        assert main(["perf", "--sites", "60"]) == 0
        assert "avoidable connections" in capsys.readouterr().out

    def test_report(self, capsys, tmp_path):
        output = tmp_path / "report.md"
        assert main(["report", str(output), "--sites", "60"]) == 0
        assert output.exists()
        assert "Table 1:" in output.read_text()

    def test_validate_passes_at_calibrated_scale(self, capsys):
        assert main(["validate", "--sites", "200"]) == 0
        out = capsys.readouterr().out
        assert "scorecard" in out


class TestScenarioHelp:
    """Scenario flag help is built from the registries, never by hand."""

    @staticmethod
    def _help(command: str, flag: str) -> str:
        parser = build_parser()
        (commands,) = [
            action for action in parser._actions
            if isinstance(action, argparse._SubParsersAction)
        ]
        (action,) = [
            action for action in commands.choices[command]._actions
            if flag in action.option_strings
        ]
        return action.help

    @pytest.mark.parametrize("command", ["study", "evolve"])
    @pytest.mark.parametrize("flag, registry", [
        ("--fault-profile", FAULTS),
        ("--evolution-policy", POLICIES),
        ("--h3-profile", H3_PROFILES),
    ])
    def test_every_registered_name_is_listed(self, command, flag, registry):
        text = self._help(command, flag)
        for name in registry.names():
            assert name in text

    def test_h3_help_keeps_the_parametric_spelling(self):
        assert "adopt-<fraction>" in self._help("study", "--h3-profile")

    def test_evolve_policy_lists_every_policy_but_none(self):
        text = self._help("evolve", "--policy")
        names = [name.strip() for name in text.split(":", 1)[1].split(",")]
        assert names == [name for name in POLICIES.names() if name != "none"]


class TestExport:
    def test_table_markdown(self, small_study):
        text = table_to_markdown(table11(small_study))
        lines = text.splitlines()
        assert lines[0].startswith("**Table 11")
        assert lines[2].startswith("| IP |") or "IP" in lines[2]
        assert len(lines) == 3 + 1 + 14  # title, blank, header, rule? adjust
