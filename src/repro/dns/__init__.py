"""DNS substrate: records, load balancing, authoritative namespace, resolvers."""

from repro.dns.loadbalancer import (
    AnycastPolicy,
    LoadBalancingPolicy,
    RotationPolicy,
    StaticPolicy,
)
from repro.dns.errors import DnsError
from repro.dns.records import DEFAULT_TTL, Answer
from repro.dns.resolver import (
    DnsTimeout,
    RecursiveResolver,
    ResolverInfo,
    ServFail,
    default_fleet,
)
from repro.dns.zone import AddressEntry, AliasEntry, DnsNamespace, NxDomain

__all__ = [
    "DnsError",
    "DnsTimeout",
    "ServFail",
    "AnycastPolicy",
    "LoadBalancingPolicy",
    "RotationPolicy",
    "StaticPolicy",
    "DEFAULT_TTL",
    "Answer",
    "RecursiveResolver",
    "ResolverInfo",
    "default_fleet",
    "AddressEntry",
    "AliasEntry",
    "DnsNamespace",
    "NxDomain",
]
