"""DNS record model.

Only the record types the reproduction needs: ``A`` (host addresses) and
``CNAME`` (aliases, used by the paper's proposed mitigation of pointing
shards at a shared CNAME).  Records carry TTLs so the recursive
resolver's cache behaves realistically — cache lifetime is one of the
two levers behind the paper's "unsynchronized DNS load balancing"
finding (the other is the authoritative rotation itself).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.util.domains import is_valid_hostname, normalize

__all__ = ["Answer", "DEFAULT_TTL"]

#: Default TTL for synthetic records (seconds).  Short, as is typical for
#: load-balanced CDN names.
DEFAULT_TTL = 300


@dataclass(frozen=True)
class Answer:
    """The result of resolving a hostname.

    ``ips`` is the ordered list of A records returned for this query;
    ``cname_chain`` records any aliases traversed on the way (first
    element is the query name's target); ``ttl`` is the minimum TTL along
    the chain, i.e. how long a cache may serve this answer.
    """

    name: str
    ips: tuple[str, ...]
    ttl: int = DEFAULT_TTL
    cname_chain: tuple[str, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        object.__setattr__(self, "name", normalize(self.name))
        if not is_valid_hostname(self.name):
            raise ValueError(f"invalid hostname in answer: {self.name!r}")
        if self.ttl < 0:
            raise ValueError(f"negative TTL: {self.ttl}")

    @property
    def primary_ip(self) -> str:
        """The address a client will connect to first."""
        if not self.ips:
            raise ValueError(f"answer for {self.name} has no addresses")
        return self.ips[0]
