"""Tests for the HAR object model."""

from __future__ import annotations

from repro.har.model import HarEntry, HarSecurityDetails


def _entry(**kwargs):
    defaults = dict(
        pageref="page_1",
        started_date_time=1.0,
        time_ms=50.0,
        method="GET",
        url="https://www.example.com/a.js",
        http_version="HTTP/2",
        status=200,
        body_size=1000,
        server_ip_address="10.0.0.1",
        connection="3",
        request_id="req_1",
        security=HarSecurityDetails(
            subject_name="example.com",
            san_list=("example.com", "*.example.com"),
            issuer="CA",
        ),
    )
    defaults.update(kwargs)
    return HarEntry(**defaults)


class TestHarEntry:
    def test_domain_extraction(self):
        assert _entry().domain == "www.example.com"

    def test_domain_lowercased(self):
        assert _entry(url="https://WWW.Example.COM/x").domain == "www.example.com"
