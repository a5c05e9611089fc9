"""Tests for certificate authorities and the issuer registry."""

from __future__ import annotations

import pytest

from repro.tls.issuers import (
    GOOGLE_TRUST_SERVICES,
    LETS_ENCRYPT,
    WELL_KNOWN_ISSUERS,
    CertificateAuthority,
    IssuerRegistry,
)


class TestCertificateAuthority:
    def test_serials_increment(self):
        ca = CertificateAuthority(org=LETS_ENCRYPT)
        a = ca.issue(["a.example.com"])
        b = ca.issue(["b.example.com"])
        assert (a.serial, b.serial) == (1, 2)
        assert ca.issued == 2

    def test_issuer_org_stamped(self):
        ca = CertificateAuthority(org=GOOGLE_TRUST_SERVICES)
        assert ca.issue(["x.example.com"]).issuer_org == GOOGLE_TRUST_SERVICES

    def test_subject_defaults_to_first_san(self):
        ca = CertificateAuthority(org=LETS_ENCRYPT)
        cert = ca.issue(["*.example.com", "example.com"])
        assert cert.subject == "example.com"

    def test_lifetime(self):
        ca = CertificateAuthority(org=LETS_ENCRYPT, default_lifetime_s=100.0)
        cert = ca.issue(["a.example.com"], not_before=10.0)
        assert cert.not_after == 110.0
        custom = ca.issue(["b.example.com"], not_before=0.0, lifetime_s=5.0)
        assert custom.not_after == 5.0

    def test_empty_sans_rejected(self):
        ca = CertificateAuthority(org=LETS_ENCRYPT)
        with pytest.raises(ValueError):
            ca.issue([])


class TestIssuerRegistry:
    def test_authority_is_singleton_per_org(self):
        registry = IssuerRegistry()
        assert registry.authority("X") is registry.authority("X")

    def test_issue_convenience(self):
        registry = IssuerRegistry()
        cert = registry.issue(LETS_ENCRYPT, ["a.example.com"])
        assert cert.issuer_org == LETS_ENCRYPT

    def test_serials_independent_across_orgs(self):
        registry = IssuerRegistry()
        a = registry.issue("Org A", ["a.example.com"])
        b = registry.issue("Org B", ["b.example.com"])
        assert a.serial == 1 and b.serial == 1

    def test_well_known_list_matches_paper_tables(self):
        assert LETS_ENCRYPT in WELL_KNOWN_ISSUERS
        assert GOOGLE_TRUST_SERVICES in WELL_KNOWN_ISSUERS
        assert len(WELL_KNOWN_ISSUERS) == 11
