"""The HTTP/2 Connection Reuse predicate (RFC 7540 §9.1.1).

"Requests for domain D may be sent over an existing connection A if D
resolves to the same destination IP that A is using (+ matching ports)
and if A's TLS certificate includes D" (§2.2.2).  This module states the
rule as a library predicate: :func:`could_reuse` answers it and
:func:`reuse_blockers` names the conditions that fail (the
``audit_single_site`` example prints them).  The classifier does not
call it: ``classify_site`` tests the IP/port and SAN halves of the rule
separately, because it needs each half on its own to attribute a
connection to CERT or IP.

HTTP/3 applies the same authority rule (RFC 9114 §3.3 inherits the
coalescing conditions), but a request can only ride a connection of the
*same* protocol — pass ``protocol="h3"`` to ask the h3 variant of the
question (the ``h3_profile`` axis, see :mod:`repro.h3`).
"""

from __future__ import annotations

from repro.core.session import SessionRecord

__all__ = ["could_reuse", "reuse_blockers"]

#: Multiplexed protocols the reuse rule is defined over.
_MULTIPLEXED = {"h2": "HTTP/2", "h3": "HTTP/3"}


def could_reuse(
    existing: SessionRecord,
    domain: str,
    ip: str,
    port: int = 443,
    *,
    protocol: str = "h2",
) -> bool:
    """Does the RFC allow sending ``domain``@``ip`` over ``existing``?"""
    return (
        existing.protocol == protocol
        and existing.ip == ip
        and existing.port == port
        and existing.covers(domain)
    )


def reuse_blockers(
    existing: SessionRecord,
    domain: str,
    ip: str,
    port: int = 443,
    *,
    protocol: str = "h2",
) -> list[str]:
    """Human-readable reasons reuse is *not* allowed (empty = allowed)."""
    wanted = _MULTIPLEXED.get(protocol, protocol)
    blockers = []
    if existing.protocol != protocol:
        blockers.append(
            f"existing connection is {existing.protocol}, not {wanted}"
        )
    if existing.ip != ip:
        blockers.append(f"destination IP differs ({existing.ip} vs {ip})")
    if existing.port != port:
        blockers.append(f"port differs ({existing.port} vs {port})")
    if not existing.covers(domain):
        blockers.append(f"certificate SANs do not include {domain}")
    return blockers
