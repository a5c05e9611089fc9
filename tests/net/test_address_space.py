"""Tests for prefix/address allocation."""

from __future__ import annotations

import ipaddress

import pytest

from repro.net.address_space import Prefix, PrefixAllocator


class TestPrefixAllocator:
    def test_prefixes_disjoint(self):
        allocator = PrefixAllocator()
        prefixes = [allocator.allocate_prefix(asn=1) for _ in range(10)]
        networks = [prefix.network for prefix in prefixes]
        for i, a in enumerate(networks):
            for b in networks[i + 1:]:
                assert not a.overlaps(b)

    def test_mixed_sizes_disjoint(self):
        allocator = PrefixAllocator()
        a = allocator.allocate_prefix(asn=1, prefixlen=24)
        b = allocator.allocate_prefix(asn=1, prefixlen=20)
        c = allocator.allocate_prefix(asn=2, prefixlen=24)
        assert not a.network.overlaps(b.network)
        assert not b.network.overlaps(c.network)

    def test_prefixlen_bounds(self):
        allocator = PrefixAllocator()
        with pytest.raises(ValueError):
            allocator.allocate_prefix(asn=1, prefixlen=25)
        with pytest.raises(ValueError):
            allocator.allocate_prefix(asn=1, prefixlen=8)

    def test_hosts_within_prefix_and_unique(self):
        allocator = PrefixAllocator()
        prefix = allocator.allocate_prefix(asn=1)
        hosts = [allocator.allocate_host(prefix) for _ in range(50)]
        assert len(set(hosts)) == 50
        for host in hosts:
            assert host in prefix

    def test_hosts_same_slash24(self):
        allocator = PrefixAllocator()
        prefix = allocator.allocate_prefix(asn=7)
        a = allocator.allocate_host(prefix)
        b = allocator.allocate_host(prefix)
        assert ipaddress.ip_network(f"{b}/24", strict=False) == (
            ipaddress.ip_network(f"{a}/24", strict=False)
        )

    def test_skips_network_address(self):
        allocator = PrefixAllocator()
        prefix = allocator.allocate_prefix(asn=1)
        first = allocator.allocate_host(prefix)
        assert ipaddress.IPv4Address(first) != prefix.network.network_address

    def test_prefix_exhaustion(self):
        allocator = PrefixAllocator()
        prefix = allocator.allocate_prefix(asn=1)
        for _ in range(255):
            allocator.allocate_host(prefix)
        with pytest.raises(RuntimeError):
            allocator.allocate_host(prefix)

    def test_deterministic_sequence(self):
        first = PrefixAllocator()
        second = PrefixAllocator()
        for _ in range(5):
            a = first.allocate_prefix(asn=1)
            b = second.allocate_prefix(asn=1)
            assert a.network == b.network

    def test_contains_protocol(self):
        prefix = Prefix(network=ipaddress.IPv4Network("10.2.3.0/24"), asn=5)
        assert "10.2.3.17" in prefix
        assert "10.2.4.17" not in prefix
