"""Per-layer unit tests for every fault hook point.

Each test compiles an ad-hoc always-fires profile for exactly the kind
under test, so the strike is deterministic and the assertion is about
the *mechanism* (typed error, fallback, counter), not about rates.
"""

from __future__ import annotations

import random

import pytest

from repro.browser.browser import BrowserConfig, ChromiumBrowser
from repro.dns.loadbalancer import narrow_answer
from repro.dns.resolver import DnsTimeout, ServFail
from repro.dns.zone import NxDomain
from repro.faults import FaultKind, FaultPlan
from repro.h2.connection import ConnectionClosedError, Http2Connection
from repro.h2.stream import StreamResetError
from repro.tls.certificate import (
    UNTRUSTED_ISSUER,
    Certificate,
    degrade_certificate,
)
from repro.tls.verify import (
    CertificateExpiredError,
    CertificateNameError,
    UntrustedIssuerError,
    verify_certificate,
)
from repro.util.clock import SimClock
from repro.util.scenario import Scenario, Spec
from repro.web.server import FaultedEndpoint, OriginServer


def _plan(*specs: Spec) -> FaultPlan:
    profile = Scenario(name="adhoc", description="test", specs=specs)
    return FaultPlan.compile(profile, seed=1, run="test", domain="site.test")


def _always(kind: FaultKind, param: float = 0.0) -> FaultPlan:
    return _plan(Spec(kind, rate=1.0, param=param))


def _origin_server(
    ip: str = "10.0.0.1", domains: tuple[str, ...] = ("example.com",)
) -> OriginServer:
    cert = Certificate(
        serial=1, subject=domains[0], sans=domains, issuer_org="CA"
    )
    return OriginServer(
        ip=ip, name="test",
        cert_map={domain: cert for domain in domains},
        default_certificate=cert,
    )


# ----------------------------------------------------------------------
# DNS layer
# ----------------------------------------------------------------------
class TestResolverHooks:
    def _resolver(self, ecosystem, plan):
        resolver = ecosystem.make_resolver("internal")
        resolver.faults = plan
        return resolver

    def test_servfail_raises_typed_error(self, small_ecosystem):
        resolver = self._resolver(
            small_ecosystem, _always(FaultKind.DNS_SERVFAIL)
        )
        domain = small_ecosystem.websites[0].domain
        with pytest.raises(ServFail):
            resolver.resolve(domain, now=0.0)

    def test_timeout_raises_typed_error(self, small_ecosystem):
        resolver = self._resolver(
            small_ecosystem, _always(FaultKind.DNS_TIMEOUT)
        )
        with pytest.raises(DnsTimeout):
            resolver.resolve(small_ecosystem.websites[0].domain, now=0.0)

    def test_nxdomain_injected_for_existing_name(self, small_ecosystem):
        domain = small_ecosystem.websites[0].domain
        clean = small_ecosystem.make_resolver("internal")
        assert clean.resolve(domain, now=0.0) is not None  # name exists
        resolver = self._resolver(
            small_ecosystem, _always(FaultKind.DNS_NXDOMAIN)
        )
        with pytest.raises(NxDomain):
            resolver.resolve(domain, now=0.0)

    def test_stale_ttl_serves_expired_entry(self, small_ecosystem):
        domain = small_ecosystem.websites[0].domain
        resolver = self._resolver(
            small_ecosystem, _always(FaultKind.DNS_STALE_TTL)
        )
        first = resolver.resolve(domain, now=0.0)
        stale = resolver.resolve(domain, now=first.ttl + 10_000.0)
        assert stale is first  # the cached (expired) object, served as-is
        assert resolver.stale_answers_served == 1
        assert resolver.cache_size == 1  # entry is kept, not evicted

    def test_narrowed_answers_keep_first_records(self, small_ecosystem):
        # Third-party pool names answer with several A records; the
        # narrowed-balancer fault must cut them to the first `param`.
        domain = "connect.facebook.net"
        plan = _always(FaultKind.DNS_NARROWED, param=1.0)
        clean = small_ecosystem.make_resolver("internal")
        narrow = self._resolver(small_ecosystem, plan)
        baseline = clean.resolve(domain, now=0.0)
        assert len(baseline.ips) > 1  # precondition: a balanced pool
        narrowed = narrow.resolve(domain, now=0.0)
        assert narrowed.ips == baseline.ips[:1]

    def test_no_plan_counters_untouched(self, small_ecosystem):
        resolver = small_ecosystem.make_resolver("internal")
        resolver.resolve(small_ecosystem.websites[0].domain, now=0.0)
        assert resolver.stale_answers_served == 0


class TestNarrowAnswer:
    def test_short_answers_pass_through(self, small_ecosystem):
        resolver = small_ecosystem.make_resolver("internal")
        answer = resolver.resolve(small_ecosystem.websites[0].domain, now=0.0)
        assert narrow_answer(answer, keep=len(answer.ips)) is answer

    def test_keep_is_clamped_to_one(self, small_ecosystem):
        resolver = small_ecosystem.make_resolver("internal")
        answer = resolver.resolve(small_ecosystem.websites[0].domain, now=0.0)
        assert len(narrow_answer(answer, keep=0).ips) >= 1


# ----------------------------------------------------------------------
# TLS layer
# ----------------------------------------------------------------------
class TestTlsHooks:
    _CERT = Certificate(
        serial=77, subject="example.com",
        sans=("example.com", "*.example.com"), issuer_org="TestCA",
        not_before=0.0, not_after=1_000_000.0,
    )

    def test_healthy_certificate_verifies(self):
        verify_certificate(
            self._CERT, "img.example.com", now=5.0,
            trusted_issuers=frozenset({"TestCA"}),
        )

    def test_expired_degradation(self):
        degraded = degrade_certificate(self._CERT, "expired", now=500.0)
        assert not degraded.is_valid_at(500.0)
        with pytest.raises(CertificateExpiredError):
            verify_certificate(degraded, "example.com", now=500.0)

    def test_san_mismatch_degradation(self):
        degraded = degrade_certificate(self._CERT, "san-mismatch", now=0.0)
        with pytest.raises(CertificateNameError):
            verify_certificate(degraded, "example.com", now=0.0)

    def test_untrusted_issuer_degradation(self):
        degraded = degrade_certificate(
            self._CERT, "untrusted-issuer", now=0.0
        )
        assert degraded.issuer_org == UNTRUSTED_ISSUER
        with pytest.raises(UntrustedIssuerError):
            verify_certificate(
                degraded, "example.com", now=0.0,
                trusted_issuers=frozenset({"TestCA"}),
            )

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="unknown degradation mode"):
            degrade_certificate(self._CERT, "melted", now=0.0)

    def test_degraded_serial_never_collides(self):
        degraded = degrade_certificate(self._CERT, "expired", now=0.0)
        assert degraded.fingerprint != self._CERT.fingerprint

    def test_trust_check_precedes_name_check(self):
        degraded = degrade_certificate(
            self._CERT, "untrusted-issuer", now=0.0
        )
        with pytest.raises(UntrustedIssuerError):
            verify_certificate(
                degraded, "not-covered.test", now=0.0,
                trusted_issuers=frozenset({"TestCA"}),
            )


# ----------------------------------------------------------------------
# HTTP/2 layer
# ----------------------------------------------------------------------
class TestConnectionHooks:
    def _connection(self, plan) -> Http2Connection:
        server = _origin_server()
        return Http2Connection(
            connection_id=1, server=server, sni="example.com",
            remote_ip=server.ip, created_at=0.0, faults=plan,
        )

    def test_injected_goaway_closes_session(self):
        connection = self._connection(_always(FaultKind.H2_GOAWAY))
        with pytest.raises(ConnectionClosedError):
            connection.perform_request("example.com", "/", now=1.0)
        assert connection.goaway_received
        assert connection.closed_at == 1.0

    def test_injected_rst_stream_keeps_session_open(self):
        connection = self._connection(_always(FaultKind.H2_RST_STREAM))
        with pytest.raises(StreamResetError):
            connection.perform_request("example.com", "/", now=1.0)
        assert connection.is_open
        assert connection.open_stream_count() == 0
        assert connection.requests == []  # no record for the dead stream
        # The stream id was consumed, like a real sequence number.
        assert connection.streams[1].is_closed

    def test_settings_churn_quiesces_session(self):
        connection = self._connection(
            _always(FaultKind.H2_SETTINGS_CHURN, param=0.0)
        )
        with pytest.raises(ConnectionClosedError, match="MAX_CONCURRENT"):
            connection.perform_request("example.com", "/", now=1.0)
        assert connection.is_open  # quiesced, not closed
        assert connection.remote_settings.max_concurrent_streams == 0

    def test_apply_remote_settings_pins_header_table(self):
        connection = self._connection(None)
        from repro.h2.settings import Http2Settings

        connection.apply_remote_settings(
            Http2Settings(header_table_size=0, max_concurrent_streams=5)
        )
        assert connection.remote_settings.max_concurrent_streams == 5
        assert connection.remote_settings.header_table_size == 4096

    def test_no_plan_request_path_unchanged(self):
        connection = self._connection(None)
        record = connection.perform_request("example.com", "/", now=1.0)
        assert record.status == 200


class TestPoolQuiescedSessions:
    def _pool(self, server):
        from repro.browser.pool import ConnectionPool

        return ConnectionPool(
            server_lookup=lambda ip: server, rng=random.Random(1)
        )

    def test_quiesced_session_replaced_and_realiased(self):
        # A SETTINGS-churned session (MAX_CONCURRENT_STREAMS=0) is open
        # but can never carry another stream; the pool must stop
        # handing it out and alias a replacement, instead of burning
        # one doomed attempt per subsequent request to the host.
        from repro.h2.settings import Http2Settings

        server = _origin_server()
        pool = self._pool(server)
        first = pool.get_connection(
            "example.com", (server.ip,), privacy_mode=False, now=0.0
        )
        first.connection.apply_remote_settings(
            Http2Settings(max_concurrent_streams=0)
        )
        replacement = pool.get_connection(
            "example.com", (server.ip,), privacy_mode=False, now=1.0
        )
        assert replacement.created
        assert replacement.connection is not first.connection
        again = pool.get_connection(
            "example.com", (server.ip,), privacy_mode=False, now=2.0
        )
        assert again.connection is replacement.connection  # re-aliased

    def test_quiesced_session_not_coalescable(self):
        from repro.h2.settings import Http2Settings

        server = _origin_server(domains=("example.com", "img.example.com"))
        pool = self._pool(server)
        first = pool.get_connection(
            "example.com", (server.ip,), privacy_mode=False, now=0.0
        )
        first.connection.apply_remote_settings(
            Http2Settings(max_concurrent_streams=0)
        )
        other = pool.get_connection(
            "img.example.com", (server.ip,), privacy_mode=False, now=1.0
        )
        assert not other.coalesced
        assert other.connection is not first.connection


# ----------------------------------------------------------------------
# Origin-server layer
# ----------------------------------------------------------------------
class TestFaultedEndpoint:
    def _endpoint(self, plan, server=None) -> FaultedEndpoint:
        return FaultedEndpoint(
            inner=server or _origin_server(), faults=plan,
            clock=SimClock(100.0),
        )

    def test_error_burst_arms_consecutive_503s(self):
        plan = _plan(
            Spec(FaultKind.SRV_ERROR_BURST, rate=1.0, param=3.0)
        )
        endpoint = self._endpoint(plan)
        statuses = [
            endpoint.handle_request(
                "example.com", "/", method="GET", credentials=False
            )[0]
            for _ in range(4)
        ]
        assert statuses == [503, 503, 503, 503]

    def test_truncated_body_keeps_headers(self):
        endpoint = self._endpoint(
            _always(FaultKind.SRV_TRUNCATED_BODY, param=0.25)
        )
        status, headers, body = endpoint.handle_request(
            "example.com", "/", method="GET", credentials=False
        )
        _, _, full_body = endpoint.inner.handle_request(
            "example.com", "/", method="GET", credentials=False
        )
        assert status == 200
        assert body == int(full_body * 0.25)
        # The announced content-length still promises the full body —
        # the truncation is observable, as in real truncated transfers.
        announced = dict(headers)["content-length"]
        assert int(announced) == full_body

    def test_misdirected_passthrough_untouched(self):
        endpoint = self._endpoint(
            _always(FaultKind.SRV_ERROR_BURST, param=3.0)
        )
        status, _, _ = endpoint.handle_request(
            "not-served.test", "/", method="GET", credentials=False
        )
        assert status == 421  # 421s are never rewritten into 503s

    def test_certificate_decision_cached_per_sni(self):
        plan = _plan(Spec(FaultKind.TLS_EXPIRED, rate=0.5))
        endpoint = self._endpoint(plan)
        first = endpoint.certificate_for("example.com")
        assert endpoint.certificate_for("example.com") is first

    def test_degraded_certificate_presented(self):
        endpoint = self._endpoint(_always(FaultKind.TLS_EXPIRED))
        presented = endpoint.certificate_for("example.com")
        assert not presented.is_valid_at(100.0)

    def test_surface_mirrors_inner(self):
        server = _origin_server()
        endpoint = self._endpoint(_always(FaultKind.TLS_EXPIRED), server)
        assert endpoint.ip == server.ip
        assert endpoint.alpn == server.alpn
        assert endpoint.advertised_origins() == server.advertised_origins()
        assert endpoint.serves("example.com")


# ----------------------------------------------------------------------
# Loader fallback behaviour (whole-visit integration per fault kind)
# ----------------------------------------------------------------------
class TestLoaderFallback:
    def _visit(self, ecosystem, plan):
        resolver = ecosystem.make_resolver("internal")
        resolver.faults = plan
        browser = ChromiumBrowser(
            ecosystem=ecosystem,
            resolver=resolver,
            clock=SimClock(),
            rng=random.Random(1234),
            config=BrowserConfig(observe_s=30.0),
            faults=plan,
        )
        return browser.visit(ecosystem.websites[0].domain)

    def test_permanent_dns_timeout_fails_all_resources(self, small_ecosystem):
        visit = self._visit(small_ecosystem, _always(FaultKind.DNS_TIMEOUT))
        assert visit.load.requests == []
        assert visit.load.dns_failures  # the document domain at least

    def test_broken_tls_fails_handshakes_with_record(self, small_ecosystem):
        visit = self._visit(small_ecosystem, _always(FaultKind.TLS_EXPIRED))
        assert visit.load.requests == []
        # Two handshake attempts per document fetch are both recorded.
        assert len(visit.load.tls_failures) >= 2

    def test_rst_storm_counts_resets(self, small_ecosystem):
        visit = self._visit(small_ecosystem, _always(FaultKind.H2_RST_STREAM))
        assert visit.load.requests == []
        assert visit.load.stream_resets >= 2

    def test_5xx_recorded_and_children_skipped(self, small_ecosystem):
        plan = _plan(
            Spec(FaultKind.SRV_ERROR_BURST, rate=1.0, param=1000.0)
        )
        visit = self._visit(small_ecosystem, plan)
        # The document's 503 is observed (and retried once), but its
        # subresources never load.
        assert len(visit.load.requests) == 1
        assert visit.load.requests[0].record.status == 503
        assert visit.load.server_errors == 2

    def test_latency_spike_slows_load(self, small_ecosystem):
        baseline = self._visit(small_ecosystem, None)
        spiked = self._visit(
            small_ecosystem, _always(FaultKind.SRV_LATENCY_SPIKE, param=50.0)
        )
        assert spiked.load.load_time > baseline.load.load_time
        assert len(spiked.load.requests) == len(baseline.load.requests)
