"""Tests for the Fetch Standard credentials decision."""

from __future__ import annotations

import pytest

from repro.browser.fetch import decide_credentials, is_same_origin
from repro.web.resources import RequestMode


class TestDecideCredentials:
    @pytest.mark.parametrize(
        "mode",
        [RequestMode.NAVIGATE, RequestMode.NO_CORS, RequestMode.CORS_CREDENTIALED],
    )
    def test_always_credentialed_modes(self, mode):
        decision = decide_credentials(
            mode, request_domain="cdn.other.com", document_domain="example.com"
        )
        assert decision.include_credentials
        assert not decision.privacy_mode

    def test_cors_anon_cross_origin_is_privacy_mode(self):
        decision = decide_credentials(
            RequestMode.CORS_ANON,
            request_domain="fonts.gstatic.com",
            document_domain="example.com",
        )
        assert not decision.include_credentials
        assert decision.privacy_mode

    def test_cors_anon_same_origin_keeps_credentials(self):
        decision = decide_credentials(
            RequestMode.CORS_ANON,
            request_domain="example.com",
            document_domain="example.com",
        )
        assert decision.include_credentials

    def test_same_origin_is_exact_host(self):
        # Subdomains are different origins — the first-party-shard CRED
        # case relies on this.
        decision = decide_credentials(
            RequestMode.CORS_ANON,
            request_domain="img.example.com",
            document_domain="example.com",
        )
        assert decision.privacy_mode


class TestOriginHelpers:
    def test_is_same_origin_case_insensitive(self):
        assert is_same_origin("Example.COM", "example.com")
