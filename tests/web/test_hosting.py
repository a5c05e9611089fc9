"""Tests for hosting providers."""

from __future__ import annotations

import ipaddress

from repro.net.address_space import PrefixAllocator
from repro.net.asdb import AsDatabase
from repro.web.hosting import ProviderDirectory, WELL_KNOWN_PROVIDERS


def _slash24(ip: str) -> ipaddress.IPv4Network:
    return ipaddress.ip_network(f"{ip}/24", strict=False)


def _directory():
    allocator = PrefixAllocator()
    asdb = AsDatabase()
    return ProviderDirectory.with_well_known(allocator, asdb), asdb


class TestProviderDirectory:
    def test_well_known_registered(self):
        directory, asdb = _directory()
        assert len(directory.providers) == len(WELL_KNOWN_PROVIDERS)
        assert asdb.get(15169).name == "GOOGLE"
        assert asdb.get(32934).name == "FACEBOOK"

    def test_paper_table6_ases_present(self):
        directory, _ = _directory()
        for name in ("GOOGLE", "AMAZON-02", "FACEBOOK", "AUTOMATTIC",
                     "CLOUDFLARENET", "FASTLY", "AMAZON-AES", "EDGECAST",
                     "AKAMAI-ASN1", "AKAMAI-AS"):
            assert name in directory.providers

    def test_addresses_share_slash24(self):
        directory, _ = _directory()
        ips = directory["GOOGLE"].addresses(8)
        assert len(set(ips)) == 8
        assert all(_slash24(ip) == _slash24(ips[0]) for ip in ips)

    def test_addresses_attributed_to_as(self):
        directory, asdb = _directory()
        ips = directory["FACEBOOK"].addresses(3)
        for ip in ips:
            assert asdb.lookup(ip).name == "FACEBOOK"

    def test_separate_calls_get_separate_slash24(self):
        directory, _ = _directory()
        first = directory["AMAZON-02"].addresses(2)
        second = directory["AMAZON-02"].addresses(2)
        assert _slash24(first[0]) != _slash24(second[0])

    def test_generic_hosters_nonempty(self):
        directory, _ = _directory()
        hosters = directory.generic_hosters()
        assert len(hosters) >= 5
        assert all(h.system.asn for h in hosters)
