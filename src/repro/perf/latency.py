"""Network path model: RTTs and bandwidth for performance estimation.

The paper motivates single-connection HTTP/2 with connection costs:
"with TCP, 1 RTT is spent on connection establishment, increasing to 2
or 3 RTTs when TLS is added.  Additionally, congestion control slow
starts with every new connection" (§2.1).  This model assigns every
server endpoint a deterministic RTT from the client's vantage point so
those costs can be summed over a visit.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.util.rng import stable_hash

__all__ = ["PathModel"]


@dataclass(frozen=True)
class PathModel:
    """Deterministic per-destination latency/bandwidth model."""

    vantage: str = "DE"
    min_rtt_s: float = 0.010
    max_rtt_s: float = 0.120
    #: Access-link bandwidth cap (bits per second).
    bandwidth_bps: float = 50e6
    #: RTT to the recursive resolver (cache misses pay one of these).
    resolver_rtt_s: float = 0.012

    def rtt_for(self, ip: str) -> float:
        """RTT between the vantage point and ``ip`` (stable per pair).

        Addresses in the same /24 share a path, mirroring how the
        paper's nearly-interchangeable load-balanced endpoints sit in
        the same network.
        """
        slash24 = ip.rsplit(".", 1)[0]
        fraction = stable_hash("rtt", self.vantage, slash24) / float(2**64)
        return self.min_rtt_s + fraction * (self.max_rtt_s - self.min_rtt_s)
