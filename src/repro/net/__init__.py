"""Synthetic Internet substrate: ASes, prefixes, address allocation."""

from repro.net.address_space import Prefix, PrefixAllocator
from repro.net.asdb import AsDatabase, AutonomousSystem

__all__ = [
    "Prefix",
    "PrefixAllocator",
    "AsDatabase",
    "AutonomousSystem",
]
