"""Autonomous-system registry and IP→AS lookup.

The paper's Appendix A.2 (Table 6) attributes IP-cause redundancy to the
ASes hosting the involved origins.  This module provides the registry the
ecosystem generator populates and the longest-prefix-match lookup that
the analysis layer queries.
"""

from __future__ import annotations

import bisect
import ipaddress
from dataclasses import dataclass

from repro.net.address_space import Prefix

__all__ = ["AutonomousSystem", "AsDatabase"]


@dataclass(frozen=True)
class AutonomousSystem:
    """One AS: number, short name (as in Table 6) and owning organisation."""

    asn: int
    name: str
    organization: str


class AsDatabase:
    """Registry of ASes plus an interval index over their prefixes."""

    def __init__(self) -> None:
        self._systems: dict[int, AutonomousSystem] = {}
        # Parallel sorted arrays: prefix start address -> (end, asn).
        self._starts: list[int] = []
        self._entries: list[tuple[int, int]] = []
        self._dirty: list[tuple[int, int, int]] = []

    def register(self, system: AutonomousSystem) -> AutonomousSystem:
        """Add ``system`` to the registry (idempotent per ASN)."""
        existing = self._systems.get(system.asn)
        if existing is not None and existing != system:
            raise ValueError(f"ASN {system.asn} already registered as {existing}")
        self._systems[system.asn] = system
        return system

    def add_prefix(self, prefix: Prefix) -> None:
        """Announce ``prefix`` for its AS."""
        if prefix.asn not in self._systems:
            raise KeyError(f"unknown ASN {prefix.asn}; register the AS first")
        start = int(prefix.network.network_address)
        end = int(prefix.network.broadcast_address)
        self._dirty.append((start, end, prefix.asn))

    def reindex(self) -> None:
        """Fold pending prefixes into the sorted lookup index.

        ``lookup`` does this lazily; a database about to be shared
        between threads should be reindexed first, so that lookups
        only read it.
        """
        if not self._dirty:
            return
        triples = sorted(
            [(s, (e, a)) for s, e, a in self._dirty]
            + list(zip(self._starts, self._entries))
        )
        self._starts = [s for s, _ in triples]
        self._entries = [entry for _, entry in triples]
        self._dirty = []

    def __getstate__(self) -> dict:
        # Pickle the sorted index, never pending prefixes: a database
        # then pickles to the same bytes however it was filled.
        self.reindex()
        return dict(self.__dict__)

    def lookup(self, ip: str) -> AutonomousSystem | None:
        """Return the AS announcing ``ip``, or ``None``."""
        self.reindex()
        address = int(ipaddress.IPv4Address(ip))
        index = bisect.bisect_right(self._starts, address) - 1
        if index < 0:
            return None
        end, asn = self._entries[index]
        if address > end:
            return None
        return self._systems.get(asn)

    def get(self, asn: int) -> AutonomousSystem | None:
        """Return the AS registered under ``asn``, if any."""
        return self._systems.get(asn)

    def __len__(self) -> int:
        return len(self._systems)

    def __iter__(self):
        return iter(self._systems.values())

    @property
    def systems(self) -> dict[int, AutonomousSystem]:
        """Snapshot of all registered systems keyed by ASN."""
        return dict(self._systems)
