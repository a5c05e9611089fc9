"""IPv4 address-space allocation for the synthetic Internet.

Each autonomous system in the ecosystem receives one or more disjoint
prefixes; servers then obtain addresses from those prefixes.  The paper's
IP-cause analysis depends on two properties that this module preserves:

* addresses of the *same service* often land in the same /24 (the paper
  observed GA/GTM resolving "to slightly different IPs in the same /24
  network"), and
* addresses of *different* organisations never collide.
"""

from __future__ import annotations

import ipaddress
from dataclasses import dataclass, field

__all__ = ["Prefix", "PrefixAllocator"]


@dataclass(frozen=True)
class Prefix:
    """An allocated IPv4 prefix owned by one AS."""

    network: ipaddress.IPv4Network
    asn: int

    def __contains__(self, ip: str) -> bool:
        return ipaddress.IPv4Address(ip) in self.network


@dataclass
class PrefixAllocator:
    """Hands out disjoint prefixes and host addresses deterministically.

    Allocation walks the private 10.0.0.0/8 block in order, so the same
    sequence of requests always yields the same addresses.
    """

    base: ipaddress.IPv4Network = field(
        default_factory=lambda: ipaddress.IPv4Network("10.0.0.0/8")
    )
    _next_slash24: int = 0
    # thread-safe: allocation happens only during single-threaded world
    # generation; the allocator is never touched from visit tasks.
    _host_cursor: dict[ipaddress.IPv4Network, int] = field(default_factory=dict)
    prefixes: list[Prefix] = field(default_factory=list)

    def allocate_prefix(self, asn: int, prefixlen: int = 24) -> Prefix:
        """Allocate the next free prefix of ``prefixlen`` for ``asn``."""
        if not 16 <= prefixlen <= 24:
            raise ValueError(f"prefixlen must be in [16, 24], got {prefixlen}")
        # Walk in units of /24 so differently sized prefixes stay disjoint.
        step = 1 << (24 - prefixlen)
        # Align the cursor to the prefix size.
        if self._next_slash24 % step:
            self._next_slash24 += step - (self._next_slash24 % step)
        base_int = int(self.base.network_address) + (self._next_slash24 << 8)
        network = ipaddress.IPv4Network((base_int, prefixlen))
        if not network.subnet_of(self.base):
            raise RuntimeError("address space exhausted")
        self._next_slash24 += step
        prefix = Prefix(network=network, asn=asn)
        self.prefixes.append(prefix)
        return prefix

    def allocate_host(self, prefix: Prefix) -> str:
        """Allocate the next host address inside ``prefix``.

        Host numbers start at 1 (the .0 address is skipped to keep the
        addresses looking like real unicast hosts).
        """
        cursor = self._host_cursor.get(prefix.network, 1)
        if cursor >= prefix.network.num_addresses:
            raise RuntimeError(f"prefix {prefix.network} exhausted")
        self._host_cursor[prefix.network] = cursor + 1
        return str(prefix.network.network_address + cursor)
