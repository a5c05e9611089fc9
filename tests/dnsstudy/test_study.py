"""Tests for the DNS load-balancing study (Figure 3 substrate)."""

from __future__ import annotations

import pytest

from repro.dnsstudy.study import (
    DnsLoadBalancingStudy,
    DomainPair,
)


@pytest.fixture(scope="module")
def study_result(small_ecosystem):
    study = DnsLoadBalancingStudy(
        ecosystem=small_ecosystem,
        duration_s=6 * 3600.0,  # six sim-hours: 60 slots
    )
    return study.run()


class TestDnsStudy:
    def test_default_pairs_resolvable(self, small_ecosystem):
        study = DnsLoadBalancingStudy(ecosystem=small_ecosystem)
        assert study.pairs
        for pair in study.pairs:
            assert pair.domain in small_ecosystem.namespace
            assert pair.prev in small_ecosystem.namespace

    def test_uses_fourteen_resolvers(self, study_result):
        assert study_result.resolver_count == 14

    def test_every_slot_recorded(self, study_result):
        slots = int(6 * 3600.0 // study_result.interval_s)
        for timeline in study_result.timelines:
            assert len(timeline.points) == slots

    def test_overlap_counts_bounded(self, study_result):
        for timeline in study_result.timelines:
            for _, count in timeline.points:
                assert 0 <= count <= study_result.resolver_count

    def test_ga_gtm_never_overlap(self, study_result):
        """Disjoint pools: the paper's flagship never-overlapping pair."""
        timeline = next(
            t for t in study_result.timelines
            if t.pair.domain == "www.google-analytics.com"
        )
        assert timeline.classification() == "never"

    def test_gstatic_pair_fluctuates(self, study_result):
        """Shared pool with unsynchronized rotation: overlaps sometimes."""
        timeline = next(
            t for t in study_result.timelines
            if t.pair.domain == "www.gstatic.com"
        )
        assert timeline.classification() == "sometimes"

    def test_custom_pair(self, small_ecosystem):
        study = DnsLoadBalancingStudy(
            ecosystem=small_ecosystem,
            pairs=[DomainPair(domain="static.klaviyo.com",
                              prev="fast.a.klaviyo.com")],
            duration_s=3600.0,
        )
        result = study.run()
        # Single static IP shared by both: always overlapping.
        assert result.timelines[0].classification() == "always"
