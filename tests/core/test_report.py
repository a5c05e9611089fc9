"""Tests for corpus aggregation."""

from __future__ import annotations

import itertools

from repro.core.causes import Cause
from repro.core.classifier import classify_site
from repro.core.report import CorpusReport
from repro.core.session import LifetimeModel, SessionRecord

_IDS = itertools.count(1)


def _record(domain, ip, sans, start, protocol="h2"):
    return SessionRecord(
        connection_id=next(_IDS), domain=domain, ip=ip, port=443,
        sans=tuple(sans), issuer="CA", start=start, end=None, protocol=protocol,
    )


def _classified(records):
    return classify_site("site", records, model=LifetimeModel.ENDLESS)


class TestCorpusReport:
    def test_empty_site_counts_total_only(self):
        report = CorpusReport(name="r")
        report.add_site(_classified([]))
        assert report.total_sites == 1
        assert report.h2_sites == 0
        assert report.redundant_per_site == []

    def test_clean_h2_site(self):
        report = CorpusReport(name="r")
        report.add_site(_classified([
            _record("a.com", "10.0.0.1", ["a.com"], 1.0),
        ]))
        assert report.h2_sites == 1
        assert report.redundant_sites == 0
        assert report.redundant_per_site == [0]

    def test_redundant_site_aggregation(self):
        report = CorpusReport(name="r")
        report.add_site(_classified([
            _record("a.example.com", "10.0.0.1", ["*.example.com"], 1.0),
            _record("b.example.com", "10.0.0.1", ["*.example.com"], 2.0),
            # Same IP, but the priors' wildcard does not span .other.com:
            # CERT redundancy.
            _record("c.other.com", "10.0.0.1", ["c.other.com"], 3.0),
        ]))
        assert report.redundant_sites == 1
        assert report.redundant_connections == 2
        assert report.by_cause[Cause.CRED].connections == 1
        assert report.by_cause[Cause.CERT].connections == 1
        assert report.by_cause[Cause.CRED].sites == 1

    def test_shares(self):
        report = CorpusReport(name="r")
        report.add_site(_classified([
            _record("a.example.com", "10.0.0.1", ["*.example.com"], 1.0),
            _record("b.example.com", "10.0.0.1", ["*.example.com"], 2.0),
        ]))
        report.add_site(_classified([
            _record("x.com", "10.0.1.1", ["x.com"], 1.0),
        ]))
        assert report.redundant_site_share() == 0.5
        assert report.site_share(Cause.CRED) == 0.5
        assert report.connection_share(Cause.CRED) == 1 / 3

    def test_zero_division_safety(self):
        report = CorpusReport(name="r")
        assert report.redundant_site_share() == 0.0
        assert report.site_share(Cause.IP) == 0.0
        assert report.connection_share(Cause.IP) == 0.0
