"""Tests for the authoritative namespace."""

from __future__ import annotations

import pytest

from repro.dns.loadbalancer import RotationPolicy
from repro.dns.records import Answer
from repro.dns.zone import AddressEntry, AliasEntry, DnsNamespace, NxDomain


@pytest.fixture()
def namespace():
    ns = DnsNamespace()
    ns.add_address("a.example.com", AddressEntry(pool=("10.0.0.1", "10.0.0.2")))
    ns.add_alias("www.example.com", AliasEntry(target="a.example.com"))
    return ns


class TestDnsNamespace:
    def test_direct_resolution(self, namespace):
        answer = namespace.authoritative_answer(
            "a.example.com", now=0, resolver_id="r"
        )
        assert answer.ips == ("10.0.0.1", "10.0.0.2")
        assert answer.cname_chain == ()

    def test_cname_chain(self, namespace):
        answer = namespace.authoritative_answer(
            "www.example.com", now=0, resolver_id="r"
        )
        assert answer.name == "www.example.com"
        assert answer.cname_chain == ("a.example.com",)
        assert answer.primary_ip == "10.0.0.1"

    def test_nxdomain(self, namespace):
        with pytest.raises(NxDomain):
            namespace.authoritative_answer("missing.example.com", now=0,
                                           resolver_id="r")

    def test_dangling_cname_raises_nxdomain(self):
        ns = DnsNamespace()
        ns.add_alias("x.example.com", AliasEntry(target="gone.example.com"))
        with pytest.raises(NxDomain):
            ns.authoritative_answer("x.example.com", now=0, resolver_id="r")

    def test_cname_loop_detected(self):
        ns = DnsNamespace()
        ns.add_alias("a.example.com", AliasEntry(target="b.example.com"))
        ns.add_alias("b.example.com", AliasEntry(target="a.example.com"))
        with pytest.raises(ValueError, match="chain too long"):
            ns.authoritative_answer("a.example.com", now=0, resolver_id="r")

    def test_cname_to_self_rejected(self):
        ns = DnsNamespace()
        with pytest.raises(ValueError):
            ns.add_alias("a.example.com", AliasEntry(target="a.example.com"))

    def test_ttl_is_minimum_along_chain(self):
        ns = DnsNamespace()
        ns.add_address("a.example.com", AddressEntry(pool=("10.0.0.1",), ttl=300))
        ns.add_alias("b.example.com", AliasEntry(target="a.example.com", ttl=60))
        answer = ns.authoritative_answer("b.example.com", now=0, resolver_id="r")
        assert answer.ttl == 60

    def test_removal_makes_unreachable(self, namespace):
        namespace.remove("a.example.com")
        with pytest.raises(NxDomain):
            namespace.authoritative_answer("a.example.com", now=0, resolver_id="r")

    def test_contains_and_len(self, namespace):
        assert "a.example.com" in namespace
        assert "A.EXAMPLE.COM" in namespace
        assert "nope.example.com" not in namespace
        assert len(namespace) == 2

    def test_invalid_hostname_rejected(self):
        ns = DnsNamespace()
        with pytest.raises(ValueError):
            ns.add_address("bad_host.com", AddressEntry(pool=("10.0.0.1",)))

    def test_empty_pool_rejected(self):
        with pytest.raises(ValueError):
            AddressEntry(pool=())

    def test_policy_applied(self):
        ns = DnsNamespace()
        pool = tuple(f"10.0.0.{i}" for i in range(1, 9))
        ns.add_address(
            "lb.example.com",
            AddressEntry(pool=pool, policy=RotationPolicy(answer_count=1)),
        )
        answers = {
            ns.authoritative_answer(
                "lb.example.com", now=slot * 400.0, resolver_id="r"
            ).ips
            for slot in range(20)
        }
        assert len(answers) > 1


class TestAnswer:
    def test_normalizes_name(self):
        answer = Answer(name="WWW.Example.COM", ips=("10.0.0.1",))
        assert answer.name == "www.example.com"

    def test_rejects_negative_ttl(self):
        with pytest.raises(ValueError):
            Answer(name="a.example.com", ips=("10.0.0.1",), ttl=-1)

    def test_primary_ip_requires_addresses(self):
        answer = Answer(name="a.example.com", ips=())
        with pytest.raises(ValueError):
            answer.primary_ip
