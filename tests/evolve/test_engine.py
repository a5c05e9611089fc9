"""World-level tests of the evolution engine and the ecosystem hooks.

These tests generate their own small worlds (the session-scoped
fixtures are shared read-only state and must never be mutated).
"""

from __future__ import annotations

import pytest

from repro.dns.zone import AddressEntry
from repro.evolve.engine import advance_epoch
from repro.evolve.policy import ChurnKind
from repro.web.ecosystem import Ecosystem, EcosystemConfig
from repro.web.resources import RequestMode
from repro.web.website import ShardingStyle


def make_world(epoch: int = 0, policy: str = "none", n_sites: int = 30):
    return Ecosystem.generate(
        EcosystemConfig(
            seed=7, n_sites=n_sites, evolution_policy=policy, epoch=epoch
        )
    )


def world_state(ecosystem: Ecosystem) -> dict:
    """A comparable snapshot of everything evolution can mutate."""
    dns = {}
    for name in ecosystem.namespace.names():
        entry = ecosystem.namespace.entry(name)
        if isinstance(entry, AddressEntry):
            dns[name] = (entry.pool, entry.salt)
    servers = {
        ip: (
            sorted(
                (sni, cert.fingerprint, cert.sans)
                for sni, cert in server.cert_map.items()
            ),
            server.origin_frame_origins,
        )
        for ip, server in ecosystem.servers.items()
    }
    pages = {
        site.domain: [
            (resource.domain, resource.path, resource.mode.value)
            for document in site.all_documents()
            for resource in document.walk()
        ]
        for site in ecosystem.websites
    }
    return {"dns": dns, "servers": servers, "pages": pages}


def site_with_style(ecosystem, style):
    for site in ecosystem.websites:
        if site.sharding is style and site.shard_domains():
            return site
    raise AssertionError(f"no site with style {style} in the test world")


class TestHooks:
    def test_drop_shards_rehomes_resources_and_dns(self):
        from repro.evolve.engine import _drop_shards

        world = make_world()
        site = site_with_style(ecosystem=world, style=ShardingStyle.SAME_CERT_SAME_IP)
        shards = site.shard_domains()
        _drop_shards(world, site)
        assert site.shard_domains() == []
        assert site.sharding is ShardingStyle.NONE
        for shard in shards:
            assert world.namespace.entry(shard) is None
        for document in site.all_documents():
            for resource in document.walk():
                assert resource.domain not in shards

    def test_drop_shards_deregisters_resource_less_shards(self):
        from repro.evolve.engine import _drop_shards

        world = make_world(n_sites=60)
        # Find a site with a shard in DNS that no resource references.
        for site in world.websites:
            referenced = {
                resource.domain
                for document in site.all_documents()
                for resource in document.walk()
            }
            orphans = [
                shard for shard in site.shard_domains()
                if shard not in referenced
            ]
            if orphans:
                break
        else:
            pytest.skip("no resource-less shard in the test world")
        assert world.namespace.entry(orphans[0]) is not None
        _drop_shards(world, site)
        assert world.namespace.entry(orphans[0]) is None

    def test_rotation_preserves_sans_and_issuer(self):
        world = make_world()
        site = site_with_style(world, ShardingStyle.SAME_CERT_SAME_IP)
        domains = [site.domain] + site.shard_domains()
        servers = world.fleet_for(domains)
        before = {
            ip_cert.fingerprint: ip_cert
            for server in servers for ip_cert in server.cert_map.values()
        }
        from repro.evolve.engine import _rotate_certificates

        _rotate_certificates(world, domains)
        for server in servers:
            for sni, cert in server.cert_map.items():
                assert cert.fingerprint not in before
                olds = [
                    old for old in before.values() if old.sans == cert.sans
                ]
                assert olds and olds[0].issuer_org == cert.issuer_org

    def test_merge_collapses_separate_certs(self):
        world = make_world()
        site = site_with_style(world, ShardingStyle.SEPARATE_CERTS)
        domains = [site.domain] + site.shard_domains()
        from repro.evolve.engine import _merge_certificates

        _merge_certificates(world, site, domains)
        assert site.sharding is ShardingStyle.SAME_CERT_SAME_IP
        for server in world.fleet_for(domains):
            fingerprints = {
                server.certificate_for(domain).fingerprint
                for domain in domains
            }
            assert len(fingerprints) == 1
            assert set(server.certificate_for(site.domain).sans) >= set(domains)

    def test_split_issues_per_name_certs(self):
        world = make_world()
        site = site_with_style(world, ShardingStyle.SAME_CERT_SAME_IP)
        domains = [site.domain] + site.shard_domains()
        from repro.evolve.engine import _split_certificates

        _split_certificates(world, site, domains)
        assert site.sharding is ShardingStyle.SEPARATE_CERTS
        for server in world.fleet_for(domains):
            fingerprints = {
                server.certificate_for(domain).fingerprint
                for domain in domains
            }
            assert len(fingerprints) == len(domains)
            for domain in domains:
                assert server.certificate_for(domain).sans == (domain,)

    def test_migrate_fleet_moves_endpoints(self):
        world = make_world()
        site = site_with_style(world, ShardingStyle.SAME_CERT_SAME_IP)
        domains = [site.domain] + site.shard_domains()
        old_pool = world.dns_pool(site.domain)
        old_servers = {server.ip: server for server in world.fleet_for(domains)}
        provider = world.providers.generic_hosters()[0]
        moves = world.migrate_fleet(domains, provider)
        assert set(moves) == set(old_servers)
        for old_ip, new_ip in moves.items():
            assert old_ip not in world.servers
            migrated = world.servers[new_ip]
            assert migrated.cert_map == old_servers[old_ip].cert_map
        assert world.dns_pool(site.domain) == tuple(
            moves[ip] for ip in old_pool
        )
        # The new addresses attribute to the target provider's AS.
        for new_ip in moves.values():
            system = world.asdb.lookup(new_ip)
            assert system is not None
            assert system.asn == provider.system.asn

    def test_origin_frame_flip_toggles(self):
        world = make_world()
        site = site_with_style(world, ShardingStyle.SAME_CERT_SAME_IP)
        servers = world.fleet_for([site.domain])
        assert not servers[0].origin_frame_origins
        world.set_origin_frames(servers, True)
        assert all(server.origin_frame_origins for server in servers)
        assert any(
            origin == f"https://{site.domain}"
            for origin in servers[0].origin_frame_origins
        )
        world.set_origin_frames(servers, False)
        assert not servers[0].origin_frame_origins

    def test_repoint_dns_preserves_policy_and_ttl(self):
        world = make_world()
        site = world.websites[0]
        entry = world.namespace.entry(site.domain)
        reversed_pool = tuple(reversed(entry.pool))
        assert world.repoint_dns(site.domain, pool=reversed_pool, salt="x")
        after = world.namespace.entry(site.domain)
        assert after.pool == reversed_pool
        assert after.salt == "x"
        assert after.policy is entry.policy
        assert after.ttl == entry.ttl

    def test_repoint_unknown_name_is_noop(self):
        world = make_world()
        assert not world.repoint_dns("never-registered.invalid", salt="x")


class TestAdvanceEpoch:
    def test_deterministic_across_identical_worlds(self):
        first, second = make_world(), make_world()
        counts_a = advance_epoch(first, "mixed", epoch=1)
        counts_b = advance_epoch(second, "mixed", epoch=1)
        assert counts_a == counts_b
        assert counts_a, "mixed should fire something on 30 sites"
        assert world_state(first) == world_state(second)

    def test_epochs_compound(self):
        world = make_world()
        advance_epoch(world, "dns-churn", epoch=1)
        state_one = world_state(world)
        advance_epoch(world, "dns-churn", epoch=2)
        assert world_state(world) != state_one

    def test_none_policy_is_inert(self):
        world = make_world()
        pristine = world_state(world)
        assert advance_epoch(world, "none", epoch=1) == {}
        assert world_state(world) == pristine

    def test_cred_rekey_flips_modes_only(self):
        world = make_world()
        before = world_state(world)
        counts = advance_epoch(world, "cert-rotation", epoch=1)
        assert counts.get(ChurnKind.CRED_REKEY.value, 0) > 0
        flipped = 0
        for domain, page in world_state(world)["pages"].items():
            for (d0, p0, m0), (d1, p1, m1) in zip(before["pages"][domain], page):
                assert (d0, p0) == (d1, p1)  # structure never changes
                if m0 != m1:
                    flipped += 1
                    assert {m0, m1} == {
                        RequestMode.CORS_ANON.value, RequestMode.NO_CORS.value
                    }
        assert flipped == counts[ChurnKind.CRED_REKEY.value]


class TestGenerateIntegration:
    def test_generate_applies_epochs_and_ledger(self):
        world = make_world(epoch=2, policy="shard-consolidation")
        assert [epoch for epoch, _ in world.evolution_ledger] == [1, 2]
        assert any(counts for _, counts in world.evolution_ledger)

    def test_generate_is_pure_in_config(self):
        first = make_world(epoch=2, policy="mixed")
        second = make_world(epoch=2, policy="mixed")
        assert world_state(first) == world_state(second)
        assert first.evolution_ledger == second.evolution_ledger

    def test_epoch_zero_matches_pristine_for_every_policy(self):
        pristine = world_state(make_world())
        for policy in ("cert-rotation", "dns-churn", "cdn-migration",
                       "shard-consolidation", "mixed"):
            assert world_state(make_world(policy=policy)) == pristine, policy

    def test_site_list_is_epoch_invariant(self):
        pristine = make_world()
        evolved = make_world(epoch=3, policy="mixed")
        assert [site.domain for site in pristine.websites] == [
            site.domain for site in evolved.websites
        ]
        assert pristine.index.alexa_list(10) == evolved.index.alexa_list(10)

    def test_unknown_policy_fails_at_generate(self):
        with pytest.raises(ValueError, match="unknown evolution policy"):
            make_world(epoch=1, policy="tectonic-drift")

    @pytest.mark.parametrize("policy", ["cdn-migration", "mixed"])
    def test_world_stays_internally_consistent(self, policy):
        # Migration decommissions endpoints; no DNS entry may keep
        # answering with a deleted IP (resource-less shards included).
        world = make_world(epoch=3, policy=policy, n_sites=60)
        for name in world.namespace.names():
            entry = world.namespace.entry(name)
            if isinstance(entry, AddressEntry):
                for ip in entry.pool:
                    assert ip in world.servers, (policy, name, ip)
