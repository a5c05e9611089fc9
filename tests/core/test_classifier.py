"""Tests for the §4.1 classifier, including the paper's worked example."""

from __future__ import annotations

import itertools

from repro.core.causes import Cause
from repro.core.classifier import classify_site
from repro.core.session import LifetimeModel, RequestSummary, SessionRecord

_IDS = itertools.count(1)


def _record(domain, ip, sans, *, start, issuer="CA", protocol="h2",
            requests=(), end=None):
    return SessionRecord(
        connection_id=next(_IDS),
        domain=domain,
        ip=ip,
        port=443,
        sans=tuple(sans),
        issuer=issuer,
        start=start,
        end=end,
        protocol=protocol,
        requests=tuple(requests),
    )


class TestPaperWorkedExample:
    def test_four_connections_alternating_certificates(self):
        """§4.1: same IP, certs A,B,A,B → CERT×3, CRED×2, 3 redundant."""
        ip = "10.0.0.1"
        records = [
            _record("a.example.com", ip, ["a.example.com"], start=1.0),
            _record("b.example.com", ip, ["b.example.com"], start=2.0),
            _record("a.example.com", ip, ["a.example.com"], start=3.0),
            _record("b.example.com", ip, ["b.example.com"], start=4.0),
        ]
        result = classify_site("site", records, model=LifetimeModel.ENDLESS)
        assert result.count(Cause.CERT) == 3
        assert result.count(Cause.CRED) == 2
        assert result.count(Cause.IP) == 0
        assert result.redundant_count == 3

    def test_attribution_prefers_earliest_prior(self):
        ip = "10.0.0.1"
        records = [
            _record("a.example.com", ip, ["a.example.com"], start=1.0),
            _record("b.example.com", ip, ["b.example.com"], start=2.0),
            _record("a.example.com", ip, ["a.example.com"], start=3.0),
        ]
        result = classify_site("site", records, model=LifetimeModel.ENDLESS)
        cred_hits = result.hits_for(Cause.CRED)
        assert len(cred_hits) == 1
        assert cred_hits[0].previous.connection_id == records[0].connection_id


class TestCauses:
    def test_ip_cause(self):
        records = [
            _record("gtm.example.com", "10.0.0.1",
                    ["gtm.example.com", "ga.example.com"], start=1.0),
            _record("ga.example.com", "10.0.0.9",
                    ["gtm.example.com", "ga.example.com"], start=2.0),
        ]
        result = classify_site("site", records, model=LifetimeModel.ENDLESS)
        assert result.count(Cause.IP) == 1
        assert result.hits_for(Cause.IP)[0].previous.domain == "gtm.example.com"

    def test_unknown_third_party_not_redundant(self):
        records = [
            _record("a.example.com", "10.0.0.1", ["a.example.com"], start=1.0),
            _record("tracker.other.net", "10.0.9.9", ["tracker.other.net"],
                    start=2.0),
        ]
        result = classify_site("site", records, model=LifetimeModel.ENDLESS)
        assert result.redundant_count == 0

    def test_same_domain_different_ip_corner_case_is_cred(self):
        """§4.1: same initial domain on another announced IP → CRED."""
        records = [
            _record("cdn.example.com", "10.0.0.1", ["cdn.example.com"], start=1.0),
            _record("cdn.example.com", "10.0.0.2", ["cdn.example.com"], start=2.0),
        ]
        result = classify_site("site", records, model=LifetimeModel.ENDLESS)
        assert result.count(Cause.CRED) == 1
        assert result.count(Cause.IP) == 0

    def test_multiple_causes_single_connection(self):
        records = [
            _record("a.example.com", "10.0.0.1", ["a.example.com"], start=1.0),
            _record("b.example.com", "10.0.0.2",
                    ["b.example.com", "c.example.com"], start=2.0),
            # Same IP as #1 without SAN (CERT) + covered by #2 on a
            # different IP (IP): one connection, two causes.
            _record("c.example.com", "10.0.0.1", ["c.example.com"], start=3.0),
        ]
        result = classify_site("site", records, model=LifetimeModel.ENDLESS)
        assert result.count(Cause.CERT) == 1
        assert result.count(Cause.IP) == 1
        assert result.redundant_count == 1  # still one redundant connection


class TestExclusions:
    def test_421_domains_ignored(self):
        """Domains answering 421 are excluded from the analysis."""
        records = [
            _record("a.example.com", "10.0.0.1", ["*.example.com"], start=1.0),
            _record(
                "b.example.com", "10.0.0.1", ["*.example.com"], start=2.0,
                requests=[RequestSummary(domain="b.example.com", status=421,
                                         finished_at=2.1)],
            ),
        ]
        result = classify_site("site", records, model=LifetimeModel.ENDLESS)
        assert result.redundant_count == 0
        assert "b.example.com" in result.excluded_domains

    def test_421_domain_not_usable_as_prior_either(self):
        records = [
            _record(
                "a.example.com", "10.0.0.1", ["*.example.com"], start=1.0,
                requests=[RequestSummary(domain="a.example.com", status=421,
                                         finished_at=1.1)],
            ),
            _record("b.example.com", "10.0.0.1", ["*.example.com"], start=2.0),
        ]
        result = classify_site("site", records, model=LifetimeModel.ENDLESS)
        assert result.redundant_count == 0

    def test_http1_connections_not_classified(self):
        records = [
            _record("a.example.com", "10.0.0.1", ["*.example.com"], start=1.0,
                    protocol="http/1.1"),
            _record("b.example.com", "10.0.0.1", ["*.example.com"], start=2.0),
        ]
        result = classify_site("site", records, model=LifetimeModel.ENDLESS)
        assert result.h2_connections == 1
        assert result.redundant_count == 0


class TestLifetimeModels:
    def test_immediate_model_kills_stale_priors(self):
        records = [
            _record(
                "a.example.com", "10.0.0.1", ["*.example.com"], start=1.0,
                requests=[RequestSummary(domain="a.example.com", status=200,
                                         finished_at=1.5)],
            ),
            _record("b.example.com", "10.0.0.1", ["*.example.com"], start=10.0),
        ]
        endless = classify_site("site", records, model=LifetimeModel.ENDLESS)
        immediate = classify_site("site", records, model=LifetimeModel.IMMEDIATE)
        assert endless.redundant_count == 1
        assert immediate.redundant_count == 0

    def test_actual_model_uses_recorded_end(self):
        records = [
            _record("a.example.com", "10.0.0.1", ["*.example.com"],
                    start=1.0, end=5.0),
            _record("b.example.com", "10.0.0.1", ["*.example.com"], start=10.0),
        ]
        actual = classify_site("site", records, model=LifetimeModel.ACTUAL)
        assert actual.redundant_count == 0

    def test_priors_must_precede(self):
        records = [
            _record("b.example.com", "10.0.0.1", ["*.example.com"], start=5.0),
            _record("a.example.com", "10.0.0.1", ["*.example.com"], start=1.0),
        ]
        result = classify_site("site", records, model=LifetimeModel.ENDLESS)
        # Sorted by start: only the later one can be redundant.
        assert {hit.record.domain for hit in result.hits} == {"b.example.com"}


class TestClassificationAccessors:
    def test_counts_deduplicate_per_connection(self):
        ip = "10.0.0.1"
        records = [
            _record("a.example.com", ip, ["a.example.com"], start=1.0),
            _record("a.example.com", ip, ["a.example.com"], start=2.0),
            _record("a.example.com", ip, ["a.example.com"], start=3.0),
        ]
        result = classify_site("site", records, model=LifetimeModel.ENDLESS)
        # #2 and #3 are each CRED once, despite #3 having two witnesses.
        assert result.count(Cause.CRED) == 2
        assert result.count(Cause.CERT) == 0
