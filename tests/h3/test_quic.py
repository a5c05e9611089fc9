"""Alt-svc / QUIC semantics of the measurement pipeline (§4.2.1–4.2.2).

The paper's crawls disabled QUIC, so the default ``h3_profile="none"``
world never produces an h3 session.  With h3 enabled — the ``broad``
rollout world, where alt-svc discovery upgrades connections (see
``test_discovery.py``) — the pipeline must still exclude h3 the way the
paper's methodology does.
"""

from __future__ import annotations

import pytest

from repro.core.classifier import classify_site
from repro.core.session import LifetimeModel, records_from_visit
from repro.har.reader import read_sessions
from repro.har.writer import HarNoiseConfig, write_har


@pytest.fixture()
def h3_visits(h3_browser_factory, h3_ecosystem):
    """Visits of the broad world's first ten reachable sites."""
    browser = h3_browser_factory()
    visits = [browser.visit(site.domain)
              for site in h3_ecosystem.websites[:10]]
    return [visit for visit in visits if not visit.unreachable]


class TestQuicDisabled:
    def test_default_crawl_has_no_h3(self, browser, small_ecosystem):
        """The paper disables QUIC; every session must be h2/h1."""
        for site in small_ecosystem.websites[:10]:
            visit = browser.visit(site.domain)
            assert all(c.protocol in ("h2", "http/1.1")
                       for c in visit.connections)


class TestQuicEnabled:
    def test_alt_svc_endpoints_negotiate_h3(self, h3_visits):
        h3_connections = [
            connection for visit in h3_visits
            for connection in visit.connections
            if connection.protocol == "h3"
        ]
        assert h3_connections
        assert all(connection.server.alt_svc_h3
                   for connection in h3_connections)

    def test_h3_sessions_excluded_from_classification(self, h3_visits):
        total_h3 = 0
        for visit in h3_visits:
            records = records_from_visit(visit)
            h3_count = sum(1 for r in records if r.protocol == "h3")
            total_h3 += h3_count
            verdict = classify_site(visit.domain, records,
                                    model=LifetimeModel.ACTUAL)
            assert verdict.h2_connections == len(records) - h3_count - sum(
                1 for r in records if r.protocol == "http/1.1"
            )
        assert total_h3 > 0

    def test_h3_requests_get_socket_zero_in_har(self, h3_visits):
        """'We ignore HTTP/3 / QUIC requests as these all have socket
        ID 0' (§4.2.1)."""
        total_h3 = 0
        for visit in h3_visits:
            har = write_har(visit, noise=HarNoiseConfig.none())
            h3_entries = [e for e in har.entries if e.http_version == "h3"]
            total_h3 += len(h3_entries)
            assert all(entry.connection == "0" for entry in h3_entries)
            result = read_sessions(har)
            assert result.stats.socket_id_zero == len(h3_entries)
        assert total_h3 > 0

    def test_quic_does_not_break_h2_coalescing(self, h3_visits):
        """h3 sessions never serve as coalescing targets for h2."""
        h2_coalesced = 0
        for visit in h3_visits:
            for loaded in visit.load.requests:
                if loaded.coalesced and not loaded.h3_upgraded:
                    h2_coalesced += 1
                    assert loaded.connection.protocol == "h2"
        assert h2_coalesced > 0
