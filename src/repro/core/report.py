"""Corpus-level aggregation: the numbers behind Table 1 and Figure 2."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.causes import Cause
from repro.core.classifier import SiteClassification

__all__ = ["CauseCounts", "CorpusReport"]


@dataclass
class CauseCounts:
    """Sites and connections attributed to one cause."""

    sites: int = 0
    connections: int = 0


@dataclass
class CorpusReport:
    """Aggregated classification results over a whole corpus."""

    name: str
    total_sites: int = 0
    h2_sites: int = 0
    total_connections: int = 0
    h2_connections: int = 0
    #: HTTP/3 sessions across the corpus (0 unless the world's
    #: ``h3_profile`` is active; see :mod:`repro.h3`).
    h3_connections: int = 0
    redundant_sites: int = 0
    redundant_connections: int = 0
    by_cause: dict[Cause, CauseCounts] = field(
        default_factory=lambda: {cause: CauseCounts() for cause in Cause}
    )
    #: Redundant-connection count per h2 site (Figure 2's raw data).
    redundant_per_site: list[int] = field(default_factory=list)

    def add_site(self, classification: SiteClassification) -> None:
        """Fold one site's classification into the report."""
        self.total_sites += 1
        self.total_connections += classification.total_connections
        # Folded before the h2 gate: an all-h3 site still contributes
        # its protocol split even though the h2 tables skip it.
        self.h3_connections += getattr(classification, "h3_connections", 0)
        if classification.h2_connections == 0:
            return
        self.h2_sites += 1
        self.h2_connections += classification.h2_connections
        redundant = classification.redundant_count
        self.redundant_per_site.append(redundant)
        if redundant:
            self.redundant_sites += 1
            self.redundant_connections += redundant
        for cause in Cause:
            count = classification.count(cause)
            if count:
                self.by_cause[cause].sites += 1
                self.by_cause[cause].connections += count

    def merge(self, other: "CorpusReport") -> None:
        """Fold another report's tallies into this one.

        The same as replaying ``other``'s sites through :meth:`add_site`
        after this report's own: counters add and ``redundant_per_site``
        concatenates.
        """
        self.total_sites += other.total_sites
        self.h2_sites += other.h2_sites
        self.total_connections += other.total_connections
        self.h2_connections += other.h2_connections
        self.h3_connections += other.h3_connections
        self.redundant_sites += other.redundant_sites
        self.redundant_connections += other.redundant_connections
        for cause, theirs in other.by_cause.items():
            counts = self.by_cause[cause]
            counts.sites += theirs.sites
            counts.connections += theirs.connections
        self.redundant_per_site.extend(other.redundant_per_site)

    # ------------------------------------------------------------------
    def site_share(self, cause: Cause) -> float:
        """Share of h2 sites affected by ``cause`` (paper-style)."""
        if self.h2_sites == 0:
            return 0.0
        return self.by_cause[cause].sites / self.h2_sites

    def connection_share(self, cause: Cause) -> float:
        if self.h2_connections == 0:
            return 0.0
        return self.by_cause[cause].connections / self.h2_connections

    def redundant_site_share(self) -> float:
        if self.h2_sites == 0:
            return 0.0
        return self.redundant_sites / self.h2_sites
