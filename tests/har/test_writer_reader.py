"""Tests for HAR writing (with noise) and the §4.3 sanitising reader."""

from __future__ import annotations

import random

import pytest

from repro.har.model import HarEntry, HarFile, HarPage, HarSecurityDetails
from repro.har.reader import read_sessions
from repro.har.writer import HarNoiseConfig, write_har


@pytest.fixture()
def visit(browser, small_ecosystem):
    return browser.visit(small_ecosystem.websites[1].domain)


class TestWriter:
    def test_noise_free_har_matches_visit(self, visit):
        har = write_har(visit, noise=HarNoiseConfig.none())
        assert len(har.entries) == sum(
            len(c.requests) for c in visit.connections
        )
        assert har.page.title == visit.url
        sockets = {entry.connection for entry in har.entries}
        assert sockets == {
            str(c.connection_id) for c in visit.connections if c.requests
        }

    def test_unreachable_visit_rejected(self, browser):
        failed = browser.visit("missing.example")
        with pytest.raises(ValueError):
            write_har(failed)

    def test_noise_injects_h3_sockets(self, visit):
        noise = HarNoiseConfig.none()
        noise = HarNoiseConfig(
            **{**noise.__dict__, "h3_socket_zero": 1.0}
        )
        har = write_har(visit, noise=noise, rng=random.Random(1))
        assert all(entry.connection == "0" for entry in har.entries)

    def test_http_version_mapping(self, visit):
        har = write_har(visit, noise=HarNoiseConfig.none())
        versions = {entry.http_version for entry in har.entries}
        assert versions <= {"HTTP/2", "HTTP/1.1"}


class TestReaderRoundtrip:
    def test_sessions_match_browser_truth(self, visit):
        har = write_har(visit, noise=HarNoiseConfig.none())
        result = read_sessions(har)
        truth = {
            c.connection_id: c
            for c in visit.connections
            if c.protocol == "h2" and c.requests
        }
        assert {r.connection_id for r in result.records} == set(truth)
        for record in result.records:
            connection = truth[record.connection_id]
            assert record.domain == connection.requests[0].domain
            assert record.ip == connection.remote_ip
            assert record.sans == connection.certificate.sans
            assert record.end is None  # HARs carry no end times

    def test_filter_stats_zero_without_noise(self, visit):
        har = write_har(visit, noise=HarNoiseConfig.none())
        stats = read_sessions(har).stats
        http1 = sum(1 for c in visit.connections if c.protocol != "h2")
        assert stats.total > 0
        assert stats.socket_id_zero == 0
        assert stats.missing_certificate == 0
        assert stats.dropped == stats.http1_or_h3
        assert stats.accepted == sum(
            len(c.requests) for c in visit.connections if c.protocol == "h2"
        )
        assert (stats.http1_or_h3 > 0) == (http1 > 0)


def _entry(**kwargs):
    defaults = dict(
        pageref="page_1",
        started_date_time=1.0,
        time_ms=10.0,
        method="GET",
        url="https://a.example.com/x",
        http_version="HTTP/2",
        status=200,
        body_size=1000,
        server_ip_address="10.0.0.1",
        connection="1",
        request_id="req_1",
        security=HarSecurityDetails(subject_name="a.example.com",
                                    san_list=("a.example.com",), issuer="CA"),
    )
    defaults.update(kwargs)
    return HarEntry(**defaults)


def _har(entries):
    return HarFile(
        page=HarPage(page_id="page_1", started_date_time=0.0,
                     title="https://a.example.com/", on_load_ms=100.0),
        entries=entries,
    )


class TestFilterCascade:
    def test_socket_zero_dropped(self):
        result = read_sessions(_har([_entry(connection="0")]))
        assert result.stats.socket_id_zero == 1
        assert result.records == []

    def test_missing_connection_dropped(self):
        result = read_sessions(_har([_entry(connection=None)]))
        assert result.stats.socket_id_zero == 1

    def test_missing_ip_dropped(self):
        result = read_sessions(_har([_entry(server_ip_address=None)]))
        assert result.stats.missing_ip == 1

    def test_invalid_method_dropped(self):
        result = read_sessions(_har([_entry(method="INVALID")]))
        assert result.stats.invalid_method == 1

    def test_invalid_version_dropped(self):
        result = read_sessions(_har([_entry(http_version="unknown")]))
        assert result.stats.invalid_version == 1

    def test_invalid_status_dropped(self):
        result = read_sessions(_har([_entry(status=0)]))
        assert result.stats.invalid_status == 1

    def test_http1_and_h3_counted_not_sessions(self):
        result = read_sessions(_har([
            _entry(http_version="HTTP/1.1"),
            _entry(http_version="h3", connection="2"),
        ]))
        assert result.stats.http1_or_h3 == 2
        assert result.records == []

    def test_bad_pageref_dropped(self):
        result = read_sessions(_har([_entry(pageref="page_404")]))
        assert result.stats.bad_pageref == 1

    def test_missing_request_id_dropped(self):
        result = read_sessions(_har([_entry(request_id=None)]))
        assert result.stats.missing_request_id == 1

    def test_missing_certificate_dropped(self):
        result = read_sessions(_har([_entry(security=None)]))
        assert result.stats.missing_certificate == 1

    def test_inconsistent_ip_conservatively_excluded(self):
        """The paper's 653 requests with IPs inconsistent per socket."""
        result = read_sessions(_har([
            _entry(started_date_time=1.0),
            _entry(started_date_time=2.0, server_ip_address="10.0.0.99",
                   request_id="req_2"),
        ]))
        assert result.stats.inconsistent_ip == 1
        assert result.stats.accepted == 1
        assert len(result.records) == 1
        assert result.records[0].ip == "10.0.0.1"

    def test_session_reconstruction_groups_by_socket(self):
        result = read_sessions(_har([
            _entry(connection="1", started_date_time=1.0),
            _entry(connection="2", started_date_time=2.0, request_id="req_2",
                   url="https://b.example.com/y",
                   security=HarSecurityDetails(subject_name="b.example.com",
                                               san_list=("b.example.com",),
                                               issuer="CA")),
            _entry(connection="1", started_date_time=3.0, request_id="req_3"),
        ]))
        assert len(result.records) == 2
        first = next(r for r in result.records if r.connection_id == 1)
        assert len(first.requests) == 2
        assert first.domain == "a.example.com"

    def test_initial_domain_is_earliest_request(self):
        result = read_sessions(_har([
            _entry(started_date_time=5.0, url="https://late.example.com/x"),
            _entry(started_date_time=1.0, request_id="req_2"),
        ]))
        assert result.records[0].domain == "a.example.com"
