"""Tests for the AS database."""

from __future__ import annotations

import pickle

import pytest

from repro.net.address_space import PrefixAllocator
from repro.net.asdb import AsDatabase, AutonomousSystem


@pytest.fixture()
def asdb_with_prefixes():
    asdb = AsDatabase()
    allocator = PrefixAllocator()
    google = asdb.register(AutonomousSystem(asn=15169, name="GOOGLE",
                                            organization="Google LLC"))
    amazon = asdb.register(AutonomousSystem(asn=16509, name="AMAZON-02",
                                            organization="Amazon"))
    google_prefix = allocator.allocate_prefix(asn=15169)
    amazon_prefix = allocator.allocate_prefix(asn=16509)
    asdb.add_prefix(google_prefix)
    asdb.add_prefix(amazon_prefix)
    return asdb, allocator, google_prefix, amazon_prefix, google, amazon


class TestAsDatabase:
    def test_lookup_maps_ip_to_owner(self, asdb_with_prefixes):
        asdb, allocator, gp, ap, google, amazon = asdb_with_prefixes
        assert asdb.lookup(allocator.allocate_host(gp)) == google
        assert asdb.lookup(allocator.allocate_host(ap)) == amazon

    def test_lookup_unknown_ip(self, asdb_with_prefixes):
        asdb, *_ = asdb_with_prefixes
        assert asdb.lookup("192.0.2.1") is None

    def test_lookup_boundaries(self, asdb_with_prefixes):
        asdb, _, gp, _, google, _ = asdb_with_prefixes
        assert asdb.lookup(str(gp.network.network_address)) == google
        assert asdb.lookup(str(gp.network.broadcast_address)) == google
        after = gp.network.broadcast_address + 1
        looked = asdb.lookup(str(after))
        assert looked is None or looked.asn != google.asn

    def test_register_idempotent(self):
        asdb = AsDatabase()
        system = AutonomousSystem(asn=1, name="A", organization="a")
        asdb.register(system)
        asdb.register(system)
        assert len(asdb) == 1

    def test_register_conflict_rejected(self):
        asdb = AsDatabase()
        asdb.register(AutonomousSystem(asn=1, name="A", organization="a"))
        with pytest.raises(ValueError):
            asdb.register(AutonomousSystem(asn=1, name="B", organization="b"))

    def test_prefix_requires_known_asn(self):
        asdb = AsDatabase()
        allocator = PrefixAllocator()
        with pytest.raises(KeyError):
            asdb.add_prefix(allocator.allocate_prefix(asn=99))

    def test_iteration_and_get(self, asdb_with_prefixes):
        asdb, *_ = asdb_with_prefixes
        names = {system.name for system in asdb}
        assert names == {"GOOGLE", "AMAZON-02"}
        assert asdb.get(15169).name == "GOOGLE"
        assert asdb.get(999) is None

    def test_incremental_reindex(self):
        """Prefixes added after a lookup are still found later."""
        asdb = AsDatabase()
        allocator = PrefixAllocator()
        asdb.register(AutonomousSystem(asn=1, name="A", organization="a"))
        first = allocator.allocate_prefix(asn=1)
        asdb.add_prefix(first)
        ip1 = allocator.allocate_host(first)
        assert asdb.lookup(ip1).asn == 1
        second = allocator.allocate_prefix(asn=1)
        asdb.add_prefix(second)
        ip2 = allocator.allocate_host(second)
        assert asdb.lookup(ip2).asn == 1
        assert asdb.lookup(ip1).asn == 1

    def test_pickles_reindexed_whatever_the_fill_order(self, asdb_with_prefixes):
        """Pending prefixes never reach a pickle: a database filled and
        looked up in any order pickles to the same bytes."""
        asdb, allocator, gp, ap, google, amazon = asdb_with_prefixes
        looked_up = pickle.loads(pickle.dumps(asdb))
        looked_up.lookup(allocator.allocate_host(gp))
        loaded = pickle.loads(pickle.dumps(asdb))
        assert loaded._dirty == []
        assert pickle.dumps(loaded) == pickle.dumps(looked_up)
        assert loaded.lookup(allocator.allocate_host(ap)) == amazon
