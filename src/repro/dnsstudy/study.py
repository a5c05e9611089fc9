"""The multi-resolver DNS load-balancing study (Appendix A.4).

The paper resolved its top-20 IP-cause domain pairs every 6 minutes for
several days through 14 public resolvers (Table 11) and counted, per
time slot, how many resolvers returned *overlapping* answers for the
pair — overlap meaning Connection Reuse would have been possible.
Figure 3 plots that count over time: some pairs never overlap
(GA/GTM), others fluctuate (gstatic).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.dns.resolver import RecursiveResolver, default_fleet
from repro.dns.zone import NxDomain
from repro.web.ecosystem import Ecosystem

__all__ = ["DomainPair", "PairTimeline", "DnsStudyResult", "DnsLoadBalancingStudy"]

#: Pairs probed when the caller does not supply measurement-derived
#: ones: the flagship pairs of Table 12.
DEFAULT_PAIRS: tuple[tuple[str, str], ...] = (
    ("www.google-analytics.com", "www.googletagmanager.com"),
    ("www.facebook.com", "connect.facebook.net"),
    ("googleads.g.doubleclick.net", "pagead2.googlesyndication.com"),
    ("pagead2.googlesyndication.com", "googleads.g.doubleclick.net"),
    ("tpc.googlesyndication.com", "pagead2.googlesyndication.com"),
    ("www.gstatic.com", "fonts.gstatic.com"),
    ("fonts.gstatic.com", "www.gstatic.com"),
    ("script.hotjar.com", "static.hotjar.com"),
    ("vars.hotjar.com", "static.hotjar.com"),
    ("in.hotjar.com", "static.hotjar.com"),
    ("fonts.googleapis.com", "ajax.googleapis.com"),
    ("maps.googleapis.com", "fonts.googleapis.com"),
    ("stats.wp.com", "c0.wp.com"),
    ("apis.google.com", "www.gstatic.com"),
    ("www.google.de", "www.gstatic.com"),
    ("i.ytimg.com", "www.gstatic.com"),
)


@dataclass(frozen=True)
class DomainPair:
    """An (origin, previous-connection origin) pair from the IP cause."""

    domain: str
    prev: str

    def label(self) -> str:
        return f"{self.domain} / prev: {self.prev}"


@dataclass
class PairTimeline:
    """Per-slot overlap counts for one pair."""

    pair: DomainPair
    resolver_count: int = 0
    #: (slot time, number of resolvers whose answers overlapped).
    points: list[tuple[float, int]] = field(default_factory=list)

    def mean_overlap(self) -> float:
        """Average share of resolvers whose answers overlapped."""
        if not self.points or not self.resolver_count:
            return 0.0
        return sum(count for _, count in self.points) / (
            len(self.points) * self.resolver_count
        )

    def classification(self) -> str:
        """'never', 'always' or 'sometimes' (Figure 3's visual classes).

        'never' = no resolver ever saw overlapping answers; 'always' =
        every resolver did in every slot (synchronized or single-IP
        deployments); everything in between fluctuates over time and
        vantage point, like the paper's gstatic rows.
        """
        if not self.points:
            return "never"
        counts = [count for _, count in self.points]
        if max(counts) == 0:
            return "never"
        if min(counts) == self.resolver_count:
            return "always"
        return "sometimes"


@dataclass
class DnsStudyResult:
    """The full study outcome."""

    timelines: list[PairTimeline]
    resolver_count: int
    interval_s: float


@dataclass
class DnsLoadBalancingStudy:
    """Resolves domain pairs through the Table 11 fleet over sim-days."""

    ecosystem: Ecosystem
    pairs: list[DomainPair] = field(default_factory=list)
    start_time: float = 0.0
    duration_s: float = 2 * 24 * 3600.0
    interval_s: float = 360.0  # every 6 minutes, like the paper
    #: The resolver fleet of the last :meth:`run`, kept for cache
    #: inspection (the PR 3 growth regression tests read it).
    resolvers: list[RecursiveResolver] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.pairs:
            self.pairs = [
                DomainPair(domain=a, prev=b)
                for a, b in DEFAULT_PAIRS
                if a in self.ecosystem.namespace and b in self.ecosystem.namespace
            ]

    def run(self) -> DnsStudyResult:
        """Probe every pair from every resolver at every slot."""
        fleet: list[RecursiveResolver] = default_fleet(self.ecosystem.namespace)
        self.resolvers = fleet
        timelines = [
            PairTimeline(pair=pair, resolver_count=len(fleet))
            for pair in self.pairs
        ]
        slots = int(self.duration_s // self.interval_s)
        for slot in range(slots):
            now = self.start_time + slot * self.interval_s
            for timeline in timelines:
                overlapping = 0
                answered = 0
                for resolver in fleet:
                    try:
                        answer_a = resolver.resolve(timeline.pair.domain, now=now)
                        answer_b = resolver.resolve(timeline.pair.prev, now=now)
                    except NxDomain:
                        continue
                    answered += 1
                    if set(answer_a.ips) & set(answer_b.ips):
                        overlapping += 1
                # The paper filtered slots with missing answers to avoid
                # noise; we only keep fully answered slots likewise.
                if answered == len(fleet):
                    timeline.points.append((now, overlapping))
        return DnsStudyResult(
            timelines=timelines,
            resolver_count=len(fleet),
            interval_s=self.interval_s,
        )
