"""Tests for the HTTP/2 connection object."""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.analysis.digest import study_digest
from repro.analysis.study import Study, StudyConfig
from repro.h2.connection import (
    HTTP_MISDIRECTED_REQUEST,
    ConnectionClosedError,
    Http2Connection,
)
from repro.h2.hpack import HpackEncoder
from repro.h2.settings import Http2Settings
from repro.tls.certificate import Certificate
from repro.web.server import OriginServer

_GOLDEN_DIR = Path(__file__).resolve().parents[1] / "golden"


def _server(ip="10.0.0.1", domains=("example.com", "img.example.com"),
            excluded=()):
    cert = Certificate(
        serial=1, subject=domains[0], sans=tuple(domains), issuer_org="CA"
    )
    return OriginServer(
        ip=ip,
        name="test",
        cert_map={domain: cert for domain in domains},
        default_certificate=cert,
        excluded_domains=set(excluded),
    )


def _connection(server=None, **kwargs):
    server = server or _server()
    return Http2Connection(
        connection_id=1,
        server=server,
        sni="example.com",
        remote_ip=server.ip,
        created_at=0.0,
        **kwargs,
    )


class TestConnectionBasics:
    def test_certificate_selected_by_sni(self):
        cert_a = Certificate(serial=1, subject="a.example.com",
                             sans=("a.example.com",), issuer_org="CA")
        cert_b = Certificate(serial=2, subject="b.example.com",
                             sans=("b.example.com",), issuer_org="CA")
        server = OriginServer(
            ip="10.0.0.1", name="sni",
            cert_map={"a.example.com": cert_a, "b.example.com": cert_b},
            default_certificate=cert_a,
        )
        conn = Http2Connection(
            connection_id=1, server=server, sni="b.example.com",
            remote_ip="10.0.0.1", created_at=0.0,
        )
        assert conn.certificate is cert_b

    def test_ip_mismatch_rejected(self):
        server = _server(ip="10.0.0.1")
        with pytest.raises(ValueError):
            Http2Connection(
                connection_id=1, server=server, sni="example.com",
                remote_ip="10.0.0.2", created_at=0.0,
            )

    def test_request_records_facts(self):
        conn = _connection()
        record = conn.perform_request("example.com", "/x", now=1.0,
                                      with_credentials=True, service_time=0.5)
        assert record.status == 200
        assert record.url == "https://example.com/x"
        assert record.finished_at == 1.5
        assert record.with_credentials
        assert record.stream_id == 1
        assert conn.requests == [record]

    def test_stream_ids_are_odd_and_increasing(self):
        conn = _connection()
        ids = [
            conn.perform_request("example.com", f"/{i}", now=float(i)).stream_id
            for i in range(4)
        ]
        assert ids == [1, 3, 5, 7]

    def test_421_for_unserved_domain(self):
        server = _server(excluded=("img.example.com",))
        conn = _connection(server=server)
        record = conn.perform_request("img.example.com", "/a.png", now=0.0)
        assert record.status == HTTP_MISDIRECTED_REQUEST
        assert "img.example.com" in conn.misdirected_domains

    def test_origin_set_from_server(self):
        cert = Certificate(serial=1, subject="example.com",
                           sans=("example.com",), issuer_org="CA")
        server = OriginServer(
            ip="10.0.0.1", name="of", cert_map={"example.com": cert},
            default_certificate=cert,
            origin_frame_origins=("https://other.example.com",),
        )
        conn = Http2Connection(connection_id=1, server=server,
                               sni="example.com", remote_ip="10.0.0.1",
                               created_at=0.0)
        assert "https://other.example.com" in conn.origin_set


class TestConnectionLifecycle:
    def test_close(self):
        conn = _connection()
        conn.close(now=5.0)
        assert not conn.is_open
        assert conn.lifetime() == 5.0
        with pytest.raises(ConnectionClosedError):
            conn.perform_request("example.com", "/", now=6.0)

    def test_goaway_blocks_new_streams(self):
        conn = _connection()
        conn.receive_goaway(now=2.0)
        assert conn.goaway_received
        with pytest.raises(ConnectionClosedError):
            conn.perform_request("example.com", "/", now=3.0)

    def test_lifetime_with_assumed_end(self):
        conn = _connection()
        assert conn.lifetime() is None
        assert conn.lifetime(assume_end=10.0) == 10.0

    def test_max_concurrent_streams_enforced(self):
        conn = _connection(remote_settings=Http2Settings(max_concurrent_streams=0))
        with pytest.raises(ConnectionClosedError):
            conn.perform_request("example.com", "/", now=0.0)


class TestRequestPathKeepsNoHpackState:
    """Connections never HPACK-encode; ``perf/estimator.py`` accounts
    header bytes on its own, so the study must not need the encoder."""

    def test_golden_study_runs_without_the_encoder(self, monkeypatch):
        def _refuse(self, headers):
            raise AssertionError("HPACK encoding on the crawl's request path")

        monkeypatch.setattr(HpackEncoder, "encode", _refuse)
        study = Study.run(StudyConfig(seed=7, n_sites=120))
        pinned = (_GOLDEN_DIR / "digest.txt").read_text().strip()
        assert study_digest(study) == pinned
