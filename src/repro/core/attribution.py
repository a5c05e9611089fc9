"""Who causes the redundancy: origin, issuer and AS attribution.

Backs Tables 2–6, 8–10 and 12 of the paper:

* cause IP  → counted per *origin* (the redundant connection's initial
  domain) with the origins of the reusable previous connections
  (Tables 2/8/12) and per hosting AS (Table 6);
* cause CERT → counted per certificate *issuer* with unique domains
  (Tables 3/9) and per domain with its issuer (Tables 4/10);
* all connections → issuer market share (Table 5).
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass, field

from repro.core.causes import Cause
from repro.core.classifier import SiteClassification
from repro.net.asdb import AsDatabase

__all__ = ["OriginAttribution", "IssuerAttribution", "AttributionIndex"]


@dataclass
class OriginAttribution:
    """Counts for one origin of a given cause."""

    origin: str
    connections: int = 0
    previous: Counter = field(default_factory=Counter)

    def top_previous(self, top: int = 2) -> list[tuple[str, int]]:
        return self.previous.most_common(top)

    def merge(self, other: "OriginAttribution") -> None:
        self.connections += other.connections
        self.previous.update(other.previous)


@dataclass
class IssuerAttribution:
    """Counts for one certificate issuer."""

    issuer: str
    connections: int = 0
    domains: set[str] = field(default_factory=set)

    def __getstate__(self) -> dict:
        # Sorted, so the pickle bytes do not depend on PYTHONHASHSEED.
        state = dict(self.__dict__)
        state["domains"] = sorted(self.domains)
        return state

    def __setstate__(self, state: dict) -> None:
        # Also loads the older state, which held the set itself.
        state["domains"] = set(state["domains"])
        self.__dict__ = state

    def merge(self, other: "IssuerAttribution") -> None:
        self.connections += other.connections
        self.domains |= other.domains


@dataclass
class AttributionIndex:
    """Accumulates attribution over the classifications of a corpus."""

    ip_origins: dict[str, OriginAttribution] = field(default_factory=dict)
    cert_issuers: dict[str, IssuerAttribution] = field(default_factory=dict)
    cert_domains: dict[str, OriginAttribution] = field(default_factory=dict)
    cert_domain_issuer: dict[str, str] = field(default_factory=dict)
    all_issuers: dict[str, IssuerAttribution] = field(default_factory=dict)
    ip_as_connections: Counter = field(default_factory=Counter)
    ip_as_domains: dict[str, set[str]] = field(default_factory=lambda: defaultdict(set))
    #: Per-protocol cause split: protocol ("h2"/"h3") → Counter of
    #: cause values.  All-h2 on worlds without an ``h3_profile``; the
    #: ``repro h3`` report renders the split (see :mod:`repro.h3`).
    protocol_causes: dict[str, Counter] = field(
        default_factory=lambda: defaultdict(Counter)
    )

    def __getstate__(self) -> dict:
        # Sorted, so the pickle bytes do not depend on PYTHONHASHSEED.
        state = dict(self.__dict__)
        state["ip_as_domains"] = {
            name: sorted(domains)
            for name, domains in self.ip_as_domains.items()
        }
        return state

    def __setstate__(self, state: dict) -> None:
        # Also loads the older state, which held the sets themselves.
        state["ip_as_domains"] = defaultdict(set, {
            name: set(domains)
            for name, domains in state["ip_as_domains"].items()
        })
        self.__dict__ = state

    def add_site(self, classification: SiteClassification) -> None:
        """Fold one classified site into the index."""
        for record in classification.records:
            issuer = self.all_issuers.setdefault(
                record.issuer, IssuerAttribution(issuer=record.issuer)
            )
            issuer.connections += 1
            issuer.domains.add(record.domain)

        for hit in classification.hits:
            self.protocol_causes[hit.record.protocol][hit.cause.value] += 1
            if hit.cause is Cause.IP:
                origin = self.ip_origins.setdefault(
                    hit.record.domain, OriginAttribution(origin=hit.record.domain)
                )
                origin.connections += 1
                origin.previous[hit.previous.domain] += 1
            elif hit.cause is Cause.CERT:
                issuer = self.cert_issuers.setdefault(
                    hit.record.issuer, IssuerAttribution(issuer=hit.record.issuer)
                )
                issuer.connections += 1
                issuer.domains.add(hit.record.domain)
                domain = self.cert_domains.setdefault(
                    hit.record.domain, OriginAttribution(origin=hit.record.domain)
                )
                domain.connections += 1
                domain.previous[hit.previous.domain] += 1
                self.cert_domain_issuer[hit.record.domain] = hit.record.issuer

    def merge(self, other: "AttributionIndex") -> None:
        """Fold another index into this one.

        The same as replaying ``other``'s sites through :meth:`add_site`
        and :meth:`attribute_ases` after this index's own: counts add,
        sets union, new keys append in ``other``'s first-seen order and
        ``cert_domain_issuer`` keeps the later write.  Copies what it
        takes, so ``other`` is never aliased or changed.
        """
        for mine, theirs, kind in (
            (self.ip_origins, other.ip_origins, OriginAttribution),
            (self.cert_issuers, other.cert_issuers, IssuerAttribution),
            (self.cert_domains, other.cert_domains, OriginAttribution),
            (self.all_issuers, other.all_issuers, IssuerAttribution),
        ):
            for key, attribution in theirs.items():
                target = mine.get(key)
                if target is None:
                    target = mine[key] = kind(key)
                target.merge(attribution)
        self.cert_domain_issuer.update(other.cert_domain_issuer)
        self.ip_as_connections.update(other.ip_as_connections)
        for name, domains in other.ip_as_domains.items():
            self.ip_as_domains[name] |= domains
        for protocol, causes in other.protocol_causes.items():
            self.protocol_causes[protocol].update(causes)

    def attribute_ases(
        self, asdb: AsDatabase, classification: SiteClassification
    ) -> None:
        """IP-cause AS attribution (Table 6) — needs the AS database."""
        for hit in classification.hits:
            if hit.cause is not Cause.IP:
                continue
            system = asdb.lookup(hit.record.ip)
            name = system.name if system else "UNKNOWN"
            self.ip_as_connections[name] += 1
            self.ip_as_domains[name].add(hit.record.domain)

    # ------------------------------------------------------------------
    def top_ip_origins(self, top: int = 4) -> list[OriginAttribution]:
        ordered = sorted(
            self.ip_origins.values(),
            key=lambda attribution: (-attribution.connections, attribution.origin),
        )
        return ordered[:top]

    def ip_origin_rank(self, origin: str) -> int | None:
        """1-based rank of ``origin`` by IP-cause connections (the ↑ column)."""
        ordered = sorted(
            self.ip_origins.values(),
            key=lambda attribution: (-attribution.connections, attribution.origin),
        )
        for position, attribution in enumerate(ordered, start=1):
            if attribution.origin == origin:
                return position
        return None

    def top_cert_issuers(self, top: int = 5) -> list[IssuerAttribution]:
        ordered = sorted(
            self.cert_issuers.values(),
            key=lambda attribution: (-attribution.connections, attribution.issuer),
        )
        return ordered[:top]

    def top_cert_domains(self, top: int = 5) -> list[OriginAttribution]:
        ordered = sorted(
            self.cert_domains.values(),
            key=lambda attribution: (-attribution.connections, attribution.origin),
        )
        return ordered[:top]

    def top_all_issuers(self, top: int = 10) -> list[IssuerAttribution]:
        ordered = sorted(
            self.all_issuers.values(),
            key=lambda attribution: (-attribution.connections, attribution.issuer),
        )
        return ordered[:top]

    def top_ip_ases(self, top: int = 10) -> list[tuple[str, int, int]]:
        """(as name, connections, unique domains), Table 6 layout."""
        ordered = sorted(
            self.ip_as_connections.items(), key=lambda item: (-item[1], item[0])
        )
        return [
            (name, connections, len(self.ip_as_domains[name]))
            for name, connections in ordered[:top]
        ]
