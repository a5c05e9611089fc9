"""Alt-svc discovery dynamics under the ``h3_profile`` axis.

Three layers, bottom up:

* **pool** — first contact with an advertising endpoint negotiates the
  server's ALPN (h2), the offer is remembered, and the host's *next*
  connection upgrades to h3: fresh, or coalesced onto an existing h3
  session, never onto an h2 alias;
* **reuse predicate** — an h3 request can only ride an h3 connection
  (RFC 9114 §3.3 inherits the coalescing conditions but not the
  transport);
* **browser/classifier** — a broad-rollout world produces h3 sessions
  whose redundancy is attributed per protocol (an h3 hit's witness is
  always h3).
"""

from __future__ import annotations

import random

from repro.browser.browser import BrowserConfig
from repro.browser.pool import ConnectionPool
from repro.core.reuse import could_reuse, reuse_blockers
from repro.core.session import SessionRecord
from repro.tls.certificate import Certificate
from repro.web.server import OriginServer


def _world(alt_svc_h3: bool = True):
    """Two shared-cert endpoints advertising h3, one laggard on .3."""
    shared = Certificate(serial=1, subject="a.example.com",
                         sans=("a.example.com", "b.example.com"),
                         issuer_org="CA")
    other = Certificate(serial=2, subject="c.example.com",
                        sans=("c.example.com",), issuer_org="CA")
    servers = {}
    for ip in ("10.0.0.1", "10.0.0.2"):
        servers[ip] = OriginServer(
            ip=ip, name="shared",
            cert_map={"a.example.com": shared, "b.example.com": shared},
            default_certificate=shared,
            alt_svc_h3=alt_svc_h3,
        )
    servers["10.0.0.3"] = OriginServer(
        ip="10.0.0.3", name="laggard",
        cert_map={"c.example.com": other},
        default_certificate=other,
    )
    return servers


def _pool(servers=None, **kwargs):
    servers = servers or _world()
    return ConnectionPool(
        server_lookup=servers.__getitem__, rng=random.Random(1), **kwargs
    )


class TestPoolDiscovery:
    def test_first_contact_negotiates_h2_then_upgrades(self):
        pool = _pool(h3_discovery=True)
        first = pool.get_connection("a.example.com", ("10.0.0.1",),
                                    privacy_mode=False, now=0.0)
        assert first.connection.protocol == "h2"
        assert not first.h3_upgraded
        second = pool.get_connection("a.example.com", ("10.0.0.1",),
                                     privacy_mode=False, now=1.0)
        assert second.connection.protocol == "h3"
        assert second.created and second.h3_upgraded
        assert second.connection is not first.connection
        assert pool.h3_upgraded_count == 1

    def test_learned_host_skips_open_h2_alias(self):
        # The alias-hit fast path must not pin a learned host to its
        # pre-upgrade h2 session.
        pool = _pool(h3_discovery=True)
        first = pool.get_connection("a.example.com", ("10.0.0.1",),
                                    privacy_mode=False, now=0.0)
        assert first.connection.is_open
        second = pool.get_connection("a.example.com", ("10.0.0.1",),
                                     privacy_mode=False, now=1.0)
        assert second.connection.protocol == "h3"

    def test_upgrade_coalesces_onto_existing_h3_session(self):
        pool = _pool(h3_discovery=True)
        # a: h2 first contact, then its h3 upgrade.
        pool.get_connection("a.example.com", ("10.0.0.1",),
                            privacy_mode=False, now=0.0)
        upgraded = pool.get_connection("a.example.com", ("10.0.0.1",),
                                       privacy_mode=False, now=1.0)
        # b (covered by the same cert, same IP): first contact learns,
        # then the upgrade rides the existing h3 session.
        pool.get_connection("b.example.com", ("10.0.0.1",),
                            privacy_mode=False, now=2.0)
        decision = pool.get_connection("b.example.com", ("10.0.0.1",),
                                       privacy_mode=False, now=3.0)
        assert decision.coalesced and decision.h3_upgraded
        assert decision.connection is upgraded.connection

    def test_h2_requests_never_coalesce_onto_h3_sessions(self):
        pool = _pool(h3_discovery=True)
        pool.get_connection("a.example.com", ("10.0.0.1",),
                            privacy_mode=False, now=0.0)
        pool.get_connection("a.example.com", ("10.0.0.1",),
                            privacy_mode=False, now=1.0)  # h3 upgrade
        # b's first contact (not yet learned) wants h2; the open h3
        # session on the same IP/cert must not serve it.
        decision = pool.get_connection("b.example.com", ("10.0.0.1",),
                                       privacy_mode=False, now=2.0)
        assert decision.connection.protocol == "h2"

    def test_non_advertising_endpoint_never_upgrades(self):
        pool = _pool(_world(alt_svc_h3=False), h3_discovery=True)
        for now in (0.0, 1.0, 2.0):
            decision = pool.get_connection(
                "a.example.com", ("10.0.0.1",),
                privacy_mode=False, now=now,
            )
            assert decision.connection.protocol == "h2"
            assert not decision.h3_upgraded
        assert pool.h3_upgraded_count == 0

    def test_discovery_off_is_inert(self):
        pool = _pool()
        for now in (0.0, 1.0):
            decision = pool.get_connection(
                "a.example.com", ("10.0.0.1",),
                privacy_mode=False, now=now,
            )
            assert decision.connection.protocol == "h2"
        assert pool.h3_upgraded_count == 0


class TestReusePredicateProtocols:
    def _record(self, **kwargs):
        defaults = dict(
            connection_id=1,
            domain="a.example.com",
            ip="10.0.0.1",
            port=443,
            sans=("*.example.com",),
            issuer="CA",
            start=0.0,
            end=None,
        )
        defaults.update(kwargs)
        return SessionRecord(**defaults)

    def test_h3_reuses_h3(self):
        record = self._record(protocol="h3")
        assert could_reuse(record, "b.example.com", "10.0.0.1",
                           protocol="h3")

    def test_h3_request_cannot_ride_h2(self):
        record = self._record(protocol="h2")
        assert not could_reuse(record, "b.example.com", "10.0.0.1",
                               protocol="h3")
        blockers = reuse_blockers(record, "b.example.com", "10.0.0.1",
                                  protocol="h3")
        assert any("not HTTP/3" in blocker for blocker in blockers)

    def test_h2_request_cannot_ride_h3(self):
        record = self._record(protocol="h3")
        assert not could_reuse(record, "b.example.com", "10.0.0.1")
        blockers = reuse_blockers(record, "b.example.com", "10.0.0.1")
        assert any("not HTTP/2" in blocker for blocker in blockers)


class TestBrowserDiscovery:
    def test_broad_world_produces_h3_upgrades(self, h3_browser_factory,
                                              h3_ecosystem):
        # Default config: the h3_profile axis alone activates
        # discovery.
        browser = h3_browser_factory(BrowserConfig())
        upgrades = 0
        h3_connections = 0
        for site in h3_ecosystem.websites[:30]:
            visit = browser.visit(site.domain)
            if visit.unreachable:
                continue
            upgrades += visit.load.h3_upgrades
            h3_connections += sum(
                1 for connection in visit.connections
                if connection.protocol == "h3"
            )
        assert upgrades > 0
        assert h3_connections > 0

    def test_upgraded_requests_are_flagged(self, h3_browser_factory,
                                           h3_ecosystem):
        browser = h3_browser_factory(BrowserConfig())
        for site in h3_ecosystem.websites[:30]:
            visit = browser.visit(site.domain)
            if visit.unreachable:
                continue
            flagged = [request for request in visit.load.requests
                       if request.h3_upgraded]
            assert len(flagged) == visit.load.h3_upgrades
            for request in flagged:
                assert request.connection.protocol == "h3"

    def test_clean_world_stays_h2(self, browser, small_ecosystem):
        # Same browser defaults over the h3_profile="none" world: the
        # discovery machinery never engages (the clean golden pins the
        # aggregate version of this).
        for site in small_ecosystem.websites[:10]:
            visit = browser.visit(site.domain)
            assert visit.load.h3_upgrades == 0
            assert all(connection.protocol != "h3"
                       for connection in visit.connections)


class TestAttributionSplit:
    def test_h3_hits_have_h3_witnesses(self, h3_golden_study):
        # Same-protocol priors only: every redundant h3 connection's
        # reusable witness is itself h3.
        for dataset in h3_golden_study.datasets.values():
            for classification in dataset.classifications.values():
                for hit in classification.hits:
                    assert hit.record.protocol == hit.previous.protocol

    def test_protocol_causes_split_present(self, h3_golden_study):
        attribution = h3_golden_study.datasets["alexa"].attribution
        assert "h2" in attribution.protocol_causes
        assert "h3" in attribution.protocol_causes

    def test_clean_study_attributes_h2_only(self, golden_study):
        for dataset in golden_study.datasets.values():
            assert set(dataset.attribution.protocol_causes) <= {"h2"}
        assert golden_study.datasets["alexa"].report.h3_connections == 0
