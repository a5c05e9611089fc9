"""Certificate authorities.

The paper attributes CERT-cause redundancy to issuers (Tables 3, 5, 9):
Google Trust Services appears for *few* heavy-hitter domains, Let's
Encrypt for a *long tail* of small sites.  The ecosystem generator
recreates that skew by assigning issuers per party; this module provides
the authority objects that mint certificates and the canonical issuer
names used throughout the tables.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.tls.certificate import Certificate

__all__ = [
    "CertificateAuthority",
    "IssuerRegistry",
    "LETS_ENCRYPT",
    "GOOGLE_TRUST_SERVICES",
    "DIGICERT",
    "SECTIGO",
    "CLOUDFLARE_CA",
    "GLOBALSIGN",
    "AMAZON_CA",
    "GODADDY",
    "YANDEX_CA",
    "COMODO",
    "MICROSOFT_CA",
    "WELL_KNOWN_ISSUERS",
]

# Canonical issuer-organisation strings, as printed in the paper's tables.
LETS_ENCRYPT = "Let's Encrypt"
GOOGLE_TRUST_SERVICES = "Google Trust Services"
DIGICERT = "DigiCert Inc"
SECTIGO = "Sectigo Limited"
CLOUDFLARE_CA = "Cloudflare, Inc."
GLOBALSIGN = "GlobalSign nv-sa"
AMAZON_CA = "Amazon"
GODADDY = "GoDaddy.com, Inc."
YANDEX_CA = "Yandex LLC"
COMODO = "COMODO CA Limited"
MICROSOFT_CA = "Microsoft Corporation"

WELL_KNOWN_ISSUERS: tuple[str, ...] = (
    LETS_ENCRYPT,
    GOOGLE_TRUST_SERVICES,
    DIGICERT,
    SECTIGO,
    CLOUDFLARE_CA,
    GLOBALSIGN,
    AMAZON_CA,
    GODADDY,
    YANDEX_CA,
    COMODO,
    MICROSOFT_CA,
)


@dataclass
class CertificateAuthority:
    """Mints certificates under one issuer organisation."""

    org: str
    default_lifetime_s: float = 90 * 24 * 3600.0
    _next_serial: int = 1
    issued: int = 0

    def issue(
        self,
        sans: list[str] | tuple[str, ...],
        *,
        subject: str | None = None,
        not_before: float = 0.0,
        lifetime_s: float | None = None,
    ) -> Certificate:
        """Issue a certificate covering ``sans``.

        The subject defaults to the first SAN, as certbot and most ACME
        clients do.
        """
        sans = tuple(sans)
        if not sans:
            raise ValueError("cannot issue a certificate without SANs")
        serial = self._next_serial
        self._next_serial += 1
        self.issued += 1
        lifetime = self.default_lifetime_s if lifetime_s is None else lifetime_s
        return Certificate(
            serial=serial,
            subject=subject or sans[0].lstrip("*."),
            sans=sans,
            issuer_org=self.org,
            not_before=not_before,
            not_after=not_before + lifetime,
        )


@dataclass
class IssuerRegistry:
    """Lazily created authorities, one per issuer organisation."""

    # thread-safe: authorities are created during single-threaded world
    # generation and epoch evolution only; visit-time fault paths degrade
    # existing certificates (degrade_certificate) without issuing new ones.
    _authorities: dict[str, CertificateAuthority] = field(default_factory=dict)

    def authority(self, org: str) -> CertificateAuthority:
        """The (unique) authority for ``org``; created on first use."""
        if org not in self._authorities:
            self._authorities[org] = CertificateAuthority(org=org)
        return self._authorities[org]

    def issue(
        self, org: str, sans: list[str] | tuple[str, ...], **kwargs
    ) -> Certificate:
        """Convenience: issue via the ``org`` authority."""
        return self.authority(org).issue(sans, **kwargs)
