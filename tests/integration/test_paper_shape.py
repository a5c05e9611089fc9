"""Integration: the reproduction must match the paper's *shape*.

Absolute counts differ (synthetic corpus, thousands of sites instead of
millions), but the qualitative findings — who wins, orderings, what
vanishes under the patch — must hold.  Every assertion cites the paper
statement it checks.
"""

from __future__ import annotations

import pytest

from repro.analysis.figures import figure2
from repro.analysis.headline import headline
from repro.analysis.study import Study, StudyConfig
from repro.core.causes import Cause

pytestmark = pytest.mark.slow


class TestTable1Shape:
    def test_most_sites_open_redundant_connections(self, small_study):
        """§5.1: 76 % of HAR (endless) and 95 % of Alexa sites."""
        har = small_study.dataset("har-endless").report
        alexa = small_study.dataset("alexa").report
        assert har.redundant_site_share() > 0.6
        assert alexa.redundant_site_share() > 0.85
        assert alexa.redundant_site_share() > har.redundant_site_share()

    def test_immediate_is_a_lower_bound(self, small_study):
        """§4.2.1: immediate closes give a lower bound."""
        endless = small_study.dataset("har-endless").report
        immediate = small_study.dataset("har-immediate").report
        assert immediate.redundant_sites < endless.redundant_sites
        assert immediate.redundant_connections < endless.redundant_connections
        for cause in Cause:
            assert immediate.by_cause[cause].connections <= (
                endless.by_cause[cause].connections
            )

    def test_cause_ordering_by_sites(self, small_study):
        """§5.2: IP affects most sites, then CRED, then CERT."""
        for key in ("har-endless", "alexa"):
            report = small_study.dataset(key).report
            ip = report.by_cause[Cause.IP].sites
            cred = report.by_cause[Cause.CRED].sites
            cert = report.by_cause[Cause.CERT].sites
            assert ip > cred > cert, key

    def test_cause_ordering_by_connections(self, small_study):
        """§5.2: IP ≫ CRED > CERT connection-wise."""
        for key in ("har-endless", "alexa"):
            report = small_study.dataset(key).report
            ip = report.by_cause[Cause.IP].connections
            cred = report.by_cause[Cause.CRED].connections
            cert = report.by_cause[Cause.CERT].connections
            assert ip > cred > cert, key
            assert ip > 3 * cred, key  # "far fewer connections than IP"

    def test_cert_is_a_small_minority_of_connections(self, small_study):
        """§5.2: CERT affects ~1 % of connections."""
        report = small_study.dataset("har-endless").report
        assert report.connection_share(Cause.CERT) < 0.05


class TestPatchedRunShape:
    def test_cred_vanishes_completely(self, small_study):
        """§5.3.3: 'the CRED cases vanish completely'."""
        report = small_study.dataset("alexa-nofetch").report
        assert report.by_cause[Cause.CRED].connections == 0
        assert report.by_cause[Cause.CRED].sites == 0

    def test_other_causes_also_reduce(self, small_study):
        """§5.3.3: 'at first look counter-intuitively, other causes
        also reduce' (multi-cause connections disappear)."""
        fetch = small_study.dataset("alexa").report
        patched = small_study.dataset("alexa-nofetch").report
        assert patched.by_cause[Cause.IP].connections <= (
            fetch.by_cause[Cause.IP].connections
        )
        assert patched.h2_connections < fetch.h2_connections

    def test_quarter_of_redundancy_removed(self, small_study):
        """§5.3.3: 'Disabling it reduces redundancy by 25 %'."""
        stats = headline(small_study)
        assert 0.10 <= stats.redundant_reduction_share <= 0.40


class TestAttributionShape:
    def test_google_analytics_is_top_ip_origin(self, small_study):
        """Table 2: www.google-analytics.com leads with GTM as prev."""
        for key in ("har-endless", "alexa"):
            attribution = small_study.dataset(key).attribution
            top = attribution.top_ip_origins(1)[0]
            assert top.origin == "www.google-analytics.com", key
            assert top.top_previous(1)[0][0] == "www.googletagmanager.com"

    def test_facebook_among_top_ip_origins(self, small_study):
        attribution = small_study.dataset("har-endless").attribution
        top10 = {a.origin for a in attribution.top_ip_origins(10)}
        assert "www.facebook.com" in top10

    def test_google_and_facebook_top_ases(self, small_study):
        """Table 6: GOOGLE #1; FACEBOOK in the top ASes."""
        attribution = small_study.dataset("har-endless").attribution
        ases = [name for name, _, _ in attribution.top_ip_ases(10)]
        assert ases[0] == "GOOGLE"
        assert "FACEBOOK" in ases

    def test_gts_and_le_lead_cert_issuers(self, small_study):
        """Table 3: GTS and LE are the top CERT issuers."""
        attribution = small_study.dataset("har-endless").attribution
        top2 = {a.issuer for a in attribution.top_cert_issuers(2)}
        assert top2 <= {"Google Trust Services", "Let's Encrypt",
                        "DigiCert Inc"}
        assert "Google Trust Services" in top2 or "Let's Encrypt" in top2

    @pytest.mark.parametrize("seed", [7, 8])
    def test_gts_heavy_hitter_le_long_tail(self, seed):
        """§5.3.2: GTS occurs for few domains at high volume; LE for
        many domains.  The 200-site study has too little CERT mass to
        tell (seed 7: 2.0 connections per domain for both), so this
        runs its own 600-site HTTP Archive crawl and requires the
        sample it needs rather than skipping without it."""
        study = Study.run(StudyConfig(
            seed=seed, n_sites=600, dns_study_days=0.25,
            har_models=("endless",), alexa_variants=("fetch",),
        ))
        attribution = study.dataset("har-endless").attribution
        gts = attribution.cert_issuers.get("Google Trust Services")
        le = attribution.cert_issuers.get("Let's Encrypt")
        assert gts and le, sorted(attribution.cert_issuers)
        assert gts.connections + le.connections >= 30, (
            gts.connections, le.connections
        )
        gts_per_domain = gts.connections / len(gts.domains)
        le_per_domain = le.connections / len(le.domains)
        assert gts_per_domain > le_per_domain

    def test_klaviyo_is_top_cert_domain(self, small_study):
        """Table 4: fast.a.klaviyo.com leads the CERT domains."""
        attribution = small_study.dataset("har-endless").attribution
        top = {a.origin for a in attribution.top_cert_domains(5)}
        assert "fast.a.klaviyo.com" in top
        klaviyo = attribution.cert_domains["fast.a.klaviyo.com"]
        assert klaviyo.top_previous(1)[0][0] == "static.klaviyo.com"

    def test_adservice_cert_domain_present(self, small_study):
        attribution = small_study.dataset("alexa").attribution
        domains = set(attribution.cert_domains)
        assert domains & {"adservice.google.com", "adservice.google.de"}


class TestFigure2Shape:
    def test_half_of_har_sites_two_or_more(self, small_study):
        """§5.1: 'around 50 % of all sites open at least two'."""
        figure = figure2(small_study)
        share = figure.share_with_at_least("har-endless", 2)
        assert 0.3 <= share <= 0.9

    def test_alexa_sites_open_more(self, small_study):
        figure = figure2(small_study)
        assert figure.share_with_at_least("alexa", 4) > (
            figure.share_with_at_least("har-endless", 4)
        )


class TestLifetimeShape:
    def test_connections_are_long_lived(self, small_study):
        """§5.1: median lifetime 122.2 s for the 3.5 % that close."""
        stats = headline(small_study)
        assert stats.closed_connection_share < 0.1
        assert stats.median_closed_lifetime_s is not None
        assert 60 < stats.median_closed_lifetime_s < 250
