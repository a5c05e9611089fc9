"""Tests for the ecosystem generator."""

from __future__ import annotations

from repro.web.ecosystem import Ecosystem, EcosystemConfig


class TestGenerate:
    def test_deterministic(self):
        a = Ecosystem.generate(EcosystemConfig(seed=3, n_sites=30))
        b = Ecosystem.generate(EcosystemConfig(seed=3, n_sites=30))
        assert [s.domain for s in a.websites] == [s.domain for s in b.websites]
        assert [s.embedded_services for s in a.websites] == [
            s.embedded_services for s in b.websites
        ]
        assert a.namespace.names() == b.namespace.names()

    def test_seed_changes_world(self):
        a = Ecosystem.generate(EcosystemConfig(seed=3, n_sites=30))
        b = Ecosystem.generate(EcosystemConfig(seed=4, n_sites=30))
        assert [s.embedded_services for s in a.websites] != [
            s.embedded_services for s in b.websites
        ]

    def test_every_resource_domain_resolvable_and_served(self, small_ecosystem):
        resolver = small_ecosystem.make_resolver("check")
        for site in small_ecosystem.websites[:30]:
            for resource in site.document.walk():
                answer = resolver.resolve(resource.domain, now=0.0)
                assert answer.ips, resource.domain
                for ip in answer.ips:
                    assert ip in small_ecosystem.servers

    def test_geo_rewrite_targets_exist(self, small_ecosystem):
        rewrites = small_ecosystem.geo_rewrites("DE")
        assert rewrites["www.google.com"] == "www.google.de"
        resolver = small_ecosystem.make_resolver("geo")
        for target in rewrites.values():
            answer = resolver.resolve(target, now=0.0)
            server = small_ecosystem.server_for_ip(answer.primary_ip)
            assert server.serves(target)

    def test_unknown_country_no_rewrites(self, small_ecosystem):
        assert small_ecosystem.geo_rewrites("US") == {}

    def test_alexa_list_ordered_by_rank(self, small_ecosystem):
        top = small_ecosystem.index.alexa_list(10)
        assert len(top) == 10
        ranks = [small_ecosystem.website(d).rank for d in top]
        assert ranks == sorted(ranks)

    def test_httparchive_sample_deterministic_subset(self, small_ecosystem):
        sample = small_ecosystem.index.httparchive_sample(0.5, seed=1)
        again = small_ecosystem.index.httparchive_sample(0.5, seed=1)
        assert sample == again
        assert 0 < len(sample) < len(small_ecosystem.websites)

    def test_popular_sites_embed_more(self):
        eco = Ecosystem.generate(EcosystemConfig(seed=9, n_sites=400))
        top = eco.websites[:100]
        bottom = eco.websites[-100:]
        top_mean = sum(len(s.embedded_services) for s in top) / len(top)
        bottom_mean = sum(len(s.embedded_services) for s in bottom) / len(bottom)
        assert top_mean > bottom_mean
