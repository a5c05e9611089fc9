"""Tests for the performance-impact models."""

from __future__ import annotations

import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.classifier import classify_site
from repro.core.session import LifetimeModel, RequestSummary, SessionRecord
from repro.perf.congestion import SlowStartModel
from repro.perf.corpus import corpus_impact
from repro.perf.estimator import estimate_records
from repro.perf.latency import PathModel
from repro.perf.whatif import coalesce_records, whatif_site

_IDS = itertools.count(1)


def _record(domain, ip, sans, start, requests=()):
    return SessionRecord(
        connection_id=next(_IDS), domain=domain, ip=ip, port=443,
        sans=tuple(sans), issuer="CA", start=start, end=None,
        requests=tuple(requests),
    )


def _request(domain, size=10_000, finished=1.0):
    return RequestSummary(domain=domain, status=200, finished_at=finished,
                          body_size=size)


class TestPathModel:
    def test_rtt_deterministic_and_bounded(self):
        path = PathModel()
        for ip in ("10.0.0.1", "10.1.2.3", "10.200.9.9"):
            rtt = path.rtt_for(ip)
            assert path.min_rtt_s <= rtt <= path.max_rtt_s
            assert rtt == path.rtt_for(ip)

    def test_same_slash24_same_path(self):
        path = PathModel()
        assert path.rtt_for("10.0.0.1") == path.rtt_for("10.0.0.250")

    def test_vantage_changes_rtts(self):
        de = PathModel(vantage="DE")
        us = PathModel(vantage="US")
        ips = [f"10.{i}.0.1" for i in range(20)]
        assert any(de.rtt_for(ip) != us.rtt_for(ip) for ip in ips)


class TestSlowStart:
    def test_small_transfer_one_round(self):
        model = SlowStartModel()
        outcome = model.transfer(1_000, rtt_s=0.05)
        assert outcome.rounds == 1
        assert outcome.time_s == pytest.approx(0.05)

    def test_window_doubles(self):
        model = SlowStartModel()
        # 10 + 20 + 40 segments of 1460 B > 100 kB → 3 rounds.
        outcome = model.transfer(100_000, rtt_s=0.05, bandwidth_bps=1e9)
        assert outcome.rounds == 3
        assert outcome.final_cwnd_segments == 40

    def test_warm_window_saves_rounds(self):
        model = SlowStartModel()
        cold = model.transfer(100_000, rtt_s=0.05, bandwidth_bps=1e9)
        warm = model.transfer(
            100_000, rtt_s=0.05, bandwidth_bps=1e9,
            current_cwnd_segments=cold.final_cwnd_segments,
        )
        assert warm.rounds < cold.rounds

    def test_bandwidth_caps_window(self):
        model = SlowStartModel()
        # 1 Mbit/s, 50 ms → BDP ≈ 6.25 kB ≈ 4 segments < initial window.
        outcome = model.transfer(50_000, rtt_s=0.05, bandwidth_bps=1e6)
        assert outcome.final_cwnd_segments == SlowStartModel().initial_cwnd_segments

    def test_zero_bytes(self):
        assert SlowStartModel().transfer(0, rtt_s=0.05).rounds == 0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            SlowStartModel().transfer(-1, rtt_s=0.05)

    @given(st.integers(min_value=0, max_value=5_000_000))
    def test_time_monotone_in_size(self, size):
        model = SlowStartModel()
        smaller = model.transfer(size, rtt_s=0.05)
        larger = model.transfer(size + 50_000, rtt_s=0.05)
        assert larger.time_s >= smaller.time_s


class TestEstimator:
    def test_counts_components(self):
        records = [
            _record("a.com", "10.0.0.1", ["a.com"], 0.0,
                    requests=[_request("a.com"), _request("a.com")]),
            _record("b.com", "10.0.1.1", ["b.com"], 1.0,
                    requests=[_request("b.com")]),
        ]
        estimate = estimate_records(records)
        assert estimate.connections == 2
        assert estimate.requests == 3
        assert estimate.dns_lookups == 2
        assert estimate.setup_time_s > 0
        assert estimate.transfer_time_s > 0
        assert 0 < estimate.header_compression_ratio <= 1.0

    def test_dns_cache_shared_across_connections(self):
        records = [
            _record("a.com", "10.0.0.1", ["a.com"], 0.0),
            _record("a.com", "10.0.0.2", ["a.com"], 1.0),
        ]
        estimate = estimate_records(records)
        assert estimate.dns_lookups == 1

    def test_http1_records_ignored(self):
        record = SessionRecord(
            connection_id=next(_IDS), domain="a.com", ip="10.0.0.1", port=443,
            sans=("a.com",), issuer="CA", start=0.0, end=None,
            protocol="http/1.1",
        )
        assert estimate_records([record]).connections == 0

    def test_repeated_headers_cheaper_on_warm_table(self):
        one = estimate_records([
            _record("a.com", "10.0.0.1", ["a.com"], 0.0,
                    requests=[_request("a.com")]),
        ])
        two = estimate_records([
            _record("a.com", "10.0.0.1", ["a.com"], 0.0,
                    requests=[_request("a.com"), _request("a.com")]),
        ])
        assert one.header_bytes > 0
        # The second identical header set hits the connection's dynamic
        # table, so it costs less than the first.
        assert two.header_bytes < 2 * one.header_bytes


class TestCoalesce:
    def _redundant_site(self):
        return [
            _record("gtm.x.com", "10.0.0.1", ["*.x.com"], 0.0,
                    requests=[_request("gtm.x.com", 90_000, 0.5)]),
            _record("ga.x.com", "10.0.1.1", ["*.x.com"], 1.0,
                    requests=[_request("ga.x.com", 45_000, 1.5)]),
            _record("beacon.x.com", "10.0.1.1", ["*.x.com"], 2.0,
                    requests=[_request("beacon.x.com", 100, 2.5)]),
        ]

    def test_merges_redundant_connections(self):
        records = self._redundant_site()
        classification = classify_site("s", records,
                                       model=LifetimeModel.ENDLESS)
        survivors = coalesce_records(records, classification)
        assert len(survivors) < len(records)
        total_requests = sum(len(record.requests) for record in survivors)
        assert total_requests == 3  # no request lost

    def test_transitive_merging_terminates(self):
        records = self._redundant_site()
        classification = classify_site("s", records,
                                       model=LifetimeModel.ENDLESS)
        # ga merges into gtm; beacon merges into ga (CRED) → must land
        # on gtm transitively without infinite loops.
        survivors = coalesce_records(records, classification)
        assert len(survivors) >= 1

    def test_clean_site_unchanged(self):
        records = [
            _record("a.com", "10.0.0.1", ["a.com"], 0.0,
                    requests=[_request("a.com")]),
            _record("z.net", "10.0.9.1", ["z.net"], 1.0,
                    requests=[_request("z.net")]),
        ]
        classification = classify_site("s", records,
                                       model=LifetimeModel.ENDLESS)
        survivors = coalesce_records(records, classification)
        assert len(survivors) == 2


class TestWhatIf:
    def test_savings_non_negative(self):
        records = TestCoalesce()._redundant_site()
        classification = classify_site("s", records,
                                       model=LifetimeModel.ENDLESS)
        result = whatif_site("s", records, classification)
        assert result.connections_saved == classification.redundant_count
        assert result.setup_time_saved_s > 0
        assert result.header_bytes_saved >= 0
        assert result.total_time_saved_s > 0
        assert 0 < result.relative_saving < 1

    def test_clean_site_no_savings(self):
        records = [_record("a.com", "10.0.0.1", ["a.com"], 0.0,
                           requests=[_request("a.com")])]
        classification = classify_site("s", records,
                                       model=LifetimeModel.ENDLESS)
        result = whatif_site("s", records, classification)
        assert result.connections_saved == 0
        assert result.total_time_saved_s == pytest.approx(0.0)


class TestCorpusImpact:
    def test_over_real_dataset(self, small_study):
        dataset = small_study.dataset("alexa")
        impact = corpus_impact(dataset, {})
        assert len(impact.results) == len(dataset.classifications)
        assert impact.total_connections_saved == (
            dataset.report.redundant_connections
        )
        assert impact.total_setup_time_saved_s > 0
        assert 0 <= impact.median_relative_saving() < 1
        assert "avoidable connections" in impact.render()
