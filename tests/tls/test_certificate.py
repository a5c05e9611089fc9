"""Tests for the certificate model."""

from __future__ import annotations

import pytest

from repro.tls.certificate import Certificate


def _cert(sans, **kwargs):
    return Certificate(serial=1, subject=sans[0].lstrip("*."),
                       sans=tuple(sans), issuer_org="Test CA", **kwargs)


class TestCertificate:
    def test_covers_plain_and_wildcard(self):
        cert = _cert(["example.com", "*.example.com"])
        assert cert.covers("example.com")
        assert cert.covers("img.example.com")
        assert not cert.covers("other.com")
        assert not cert.covers("a.b.example.com")

    def test_sans_normalized_and_deduplicated(self):
        cert = _cert(["Example.COM", "example.com", "*.Example.com"])
        assert cert.sans == ("example.com", "*.example.com")

    def test_requires_sans(self):
        with pytest.raises(ValueError):
            Certificate(serial=1, subject="x", sans=(), issuer_org="Test CA")

    def test_rejects_invalid_san(self):
        with pytest.raises(ValueError):
            _cert(["bad_host.com"])

    def test_validity_window(self):
        cert = _cert(["example.com"], not_before=100.0, not_after=200.0)
        assert not cert.is_valid_at(99.9)
        assert cert.is_valid_at(100.0)
        assert cert.is_valid_at(199.9)
        assert not cert.is_valid_at(200.0)

    def test_empty_validity_window_rejected(self):
        with pytest.raises(ValueError):
            _cert(["example.com"], not_before=200.0, not_after=200.0)

    def test_fingerprint_stable(self):
        cert = _cert(["example.com"])
        assert cert.fingerprint == "Test CA#1"

    def test_frozen(self):
        cert = _cert(["example.com"])
        with pytest.raises(AttributeError):
            cert.serial = 2
