"""X.509-shaped certificate model.

Only the fields the reproduction observes are modelled: serial, subject
common name, the Subject Alternative Name list (which RFC 7540 §9.1.1
consults for Connection Reuse), issuer organisation (Tables 3/5/9) and a
validity window.  There is no key material — trust is modelled, not
computed — which keeps millions of simulated handshakes cheap while
preserving every decision the paper's classifier makes.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.tls.verify import is_valid_san_pattern, sans_cover
from repro.util.domains import normalize

__all__ = ["Certificate", "UNTRUSTED_ISSUER", "degrade_certificate"]

#: Issuer organisation used by fault injection for untrusted chains; it
#: is deliberately absent from :data:`repro.tls.issuers.WELL_KNOWN_ISSUERS`.
UNTRUSTED_ISSUER = "Untrusted Test CA"

#: The degradation modes :func:`degrade_certificate` understands.
DEGRADE_MODES = ("expired", "san-mismatch", "untrusted-issuer")


@dataclass(frozen=True)
class Certificate:
    """An issued leaf certificate."""

    serial: int
    subject: str
    sans: tuple[str, ...]
    issuer_org: str
    not_before: float = 0.0
    not_after: float = float("inf")

    def __post_init__(self) -> None:
        object.__setattr__(self, "subject", normalize(self.subject))
        sans = tuple(dict.fromkeys(normalize(san) for san in self.sans))
        if not sans:
            raise ValueError("certificate must carry at least one SAN")
        for san in sans:
            if not is_valid_san_pattern(san):
                raise ValueError(f"invalid SAN pattern: {san!r}")
        object.__setattr__(self, "sans", sans)
        if self.not_after <= self.not_before:
            raise ValueError("certificate validity window is empty")

    def covers(self, hostname: str) -> bool:
        """True when any SAN matches ``hostname`` (RFC 6125 rules)."""
        return sans_cover(self.sans, hostname)

    def is_valid_at(self, timestamp: float) -> bool:
        """Validity-window check."""
        return self.not_before <= timestamp < self.not_after

    @property
    def fingerprint(self) -> str:
        """A stable identifier used for grouping in reports."""
        return f"{self.issuer_org}#{self.serial}"


def degrade_certificate(
    certificate: Certificate, mode: str, *, now: float
) -> Certificate:
    """A broken copy of ``certificate`` for fault injection.

    ``mode`` selects the failure a misconfigured server presents:

    * ``"expired"`` — the validity window ended an hour before ``now``;
    * ``"san-mismatch"`` — the SAN list covers only a name nobody asks
      for (a certificate deployed for the wrong vhost);
    * ``"untrusted-issuer"`` — reissued by :data:`UNTRUSTED_ISSUER`.

    The serial is shifted into a reserved range so degraded copies never
    collide with a genuine certificate's fingerprint in reports.
    """
    degraded_serial = certificate.serial + 1_000_000_000
    if mode == "expired":
        return replace(
            certificate,
            serial=degraded_serial,
            not_before=now - 365.0 * 24 * 3600.0,
            not_after=now - 3600.0,
        )
    if mode == "san-mismatch":
        return replace(
            certificate,
            serial=degraded_serial,
            sans=("wrong-vhost.invalid",),
        )
    if mode == "untrusted-issuer":
        return replace(
            certificate, serial=degraded_serial, issuer_org=UNTRUSTED_ISSUER
        )
    raise ValueError(
        f"unknown degradation mode {mode!r}; expected one of {DEGRADE_MODES}"
    )
