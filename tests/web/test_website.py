"""Tests for first-party site generation."""

from __future__ import annotations

import random
from collections import Counter

import pytest

from repro.dns.zone import DnsNamespace
from repro.net.address_space import PrefixAllocator
from repro.net.asdb import AsDatabase
from repro.tls.issuers import IssuerRegistry
from repro.web.hosting import ProviderDirectory
from repro.web.website import ShardingStyle, WebsiteFactory


@pytest.fixture()
def factory():
    allocator = PrefixAllocator()
    asdb = AsDatabase()
    providers = ProviderDirectory.with_well_known(allocator, asdb)
    return WebsiteFactory(
        providers=providers,
        namespace=DnsNamespace(),
        issuers=IssuerRegistry(),
        servers={},
        rng=random.Random(5),
    )


class TestBuildSite:
    def test_document_is_first(self, factory):
        site = factory.build_site(rank=1)
        assert site.document.path == "/"
        assert site.document.domain == site.domain
        assert sum(1 for _ in site.document.walk()) >= 4

    def test_site_resolvable_and_served(self, factory):
        site = factory.build_site(rank=1)
        answer = factory.namespace.authoritative_answer(
            site.domain, now=0, resolver_id="r"
        )
        server = factory.servers[answer.primary_ip]
        assert server.serves(site.domain)

    def test_shards_resolvable(self, factory):
        for rank in range(1, 40):
            site = factory.build_site(rank)
            for resource in site.document.walk():
                assert resource.domain in factory.namespace

    def test_separate_cert_shards_get_disjoint_certs(self, factory):
        for rank in range(1, 200):
            site = factory.build_site(rank)
            if site.sharding is not ShardingStyle.SEPARATE_CERTS:
                continue
            shard_domains = sorted(site.document.domains() - {site.domain})
            shard = next(
                (d for d in shard_domains if d.endswith(site.domain)), None
            )
            if shard is None:
                continue
            answer = factory.namespace.authoritative_answer(
                site.domain, now=0, resolver_id="r"
            )
            server = factory.servers[answer.primary_ip]
            root_cert = server.certificate_for(site.domain)
            shard_cert = server.certificate_for(shard)
            assert root_cert is not shard_cert
            assert not root_cert.covers(shard)
            return
        pytest.fail("no SEPARATE_CERTS site with shard resources generated")

    def test_diff_ip_shards_get_distinct_ips(self, factory):
        for rank in range(1, 200):
            site = factory.build_site(rank)
            if site.sharding is not ShardingStyle.SAME_CERT_DIFF_IP:
                continue
            own = [d for d in site.document.domains() if d.endswith(site.domain)]
            ips = {
                factory.namespace.authoritative_answer(
                    d, now=0, resolver_id="r"
                ).primary_ip
                for d in own
            }
            if len(own) > 1:
                assert len(ips) == len(own)
                return
        pytest.fail("no SAME_CERT_DIFF_IP site generated")

    def test_h1_share_roughly_respected(self, factory):
        sites = [factory.build_site(rank) for rank in range(1, 301)]
        h1 = sum(1 for site in sites if not site.supports_h2)
        assert 4 <= h1 <= 40  # ~6 % of 300, generous bounds

    def test_style_distribution(self, factory):
        sites = [factory.build_site(rank) for rank in range(1, 501)]
        styles = Counter(site.sharding for site in sites)
        assert styles[ShardingStyle.NONE] > styles[ShardingStyle.SEPARATE_CERTS]
        assert styles[ShardingStyle.SAME_CERT_SAME_IP] > 0
        assert styles[ShardingStyle.SAME_CERT_DIFF_IP] > 0

    def test_merged_certificates_ablation(self):
        allocator = PrefixAllocator()
        asdb = AsDatabase()
        providers = ProviderDirectory.with_well_known(allocator, asdb)
        factory = WebsiteFactory(
            providers=providers,
            namespace=DnsNamespace(),
            issuers=IssuerRegistry(),
            servers={},
            rng=random.Random(5),
            merged_certificates=True,
        )
        for rank in range(1, 200):
            site = factory.build_site(rank)
            if site.sharding is not ShardingStyle.SEPARATE_CERTS:
                continue
            answer = factory.namespace.authoritative_answer(
                site.domain, now=0, resolver_id="r"
            )
            server = factory.servers[answer.primary_ip]
            root_cert = server.certificate_for(site.domain)
            for domain in site.document.domains():
                if domain.endswith(site.domain):
                    assert root_cert.covers(domain)
            return
        pytest.fail("no SEPARATE_CERTS site generated")
