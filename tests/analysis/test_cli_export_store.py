"""Tests for the CLI, the exporters and HAR-corpus persistence."""

from __future__ import annotations

import argparse
import csv
import io

import pytest

from repro.analysis.export import figure2_to_csv, table_to_csv, table_to_markdown
from repro.analysis.figures import figure2
from repro.analysis.tables import table1, table11
from repro.cli import build_parser, main
from repro.core.session import LifetimeModel
from repro.crawl.httparchive import HttpArchiveCrawler
from repro.evolve.policy import POLICIES
from repro.faults.plan import FAULTS
from repro.h3.plan import H3_PROFILES
from repro.har.store import load_corpus, save_corpus


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

    def test_table_csv_roundtrip(self, small_study):
        text = table_to_csv(table1(small_study))
        rows = list(csv.reader(io.StringIO(text)))
        assert rows[0][0] == "Cause"
        assert rows[1][0] == "CERT"
        assert len(rows) == 6  # header + 5 rows

    def test_figure2_csv(self, small_study):
        text = figure2_to_csv(figure2(small_study))
        rows = list(csv.reader(io.StringIO(text)))
        assert rows[0] == ["dataset", "redundant_connections", "share_at_least"]
        datasets = {row[0] for row in rows[1:]}
        assert datasets == {"har-endless", "alexa", "alexa-nofetch"}
        shares = [float(row[2]) for row in rows[1:]]
        assert all(0.0 <= share <= 1.0 for share in shares)


class TestHarStore:
    def test_save_load_roundtrip(self, small_ecosystem, tmp_path):
        crawler = HttpArchiveCrawler(world=small_ecosystem.index, seed=31)
        corpus = crawler.crawl(small_ecosystem.index.alexa_list(8))
        save_corpus(corpus, tmp_path / "corpus")
        loaded = load_corpus(tmp_path / "corpus")
        assert loaded.name == corpus.name
        assert set(loaded.hars) == set(corpus.hars)
        for domain in corpus.hars:
            assert loaded.hars[domain].to_dict() == corpus.hars[domain].to_dict()

    def test_loaded_corpus_classifies_identically(self, small_ecosystem,
                                                  tmp_path):
        crawler = HttpArchiveCrawler(world=small_ecosystem.index, seed=32)
        corpus = crawler.crawl(small_ecosystem.index.alexa_list(8))
        save_corpus(corpus, tmp_path / "c2")
        loaded = load_corpus(tmp_path / "c2")
        original = corpus.classify(model=LifetimeModel.ENDLESS)
        reloaded = loaded.classify(model=LifetimeModel.ENDLESS)
        assert original.report.redundant_connections == (
            reloaded.report.redundant_connections
        )
        assert original.report.h2_connections == reloaded.report.h2_connections

    def test_missing_index_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_corpus(tmp_path / "nope")
