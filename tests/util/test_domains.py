"""Tests for domain-name algebra."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.util.domains import (
    is_valid_hostname,
    labels,
    normalize,
    public_suffix,
    registrable_domain,
)

_label = st.text(
    alphabet="abcdefghijklmnopqrstuvwxyz0123456789", min_size=1, max_size=10
)
_hostname = st.lists(_label, min_size=1, max_size=4).map(".".join)


class TestNormalize:
    def test_lowercases(self):
        assert normalize("WWW.Example.COM") == "www.example.com"

    def test_strips_root_dot(self):
        assert normalize("example.com.") == "example.com"

    def test_strips_whitespace(self):
        assert normalize("  example.com ") == "example.com"


class TestValidity:
    @pytest.mark.parametrize(
        "name", ["example.com", "a.b.c.d", "x-y.example.io", "123.example.de"]
    )
    def test_valid(self, name):
        assert is_valid_hostname(name)

    @pytest.mark.parametrize(
        "name",
        ["", "-bad.example.com", "bad-.example.com", "under_score.com",
         "spaces here.com", "a..b", "a." + "x" * 64 + ".com"],
    )
    def test_invalid(self, name):
        assert not is_valid_hostname(name)

    def test_overlong_hostname(self):
        name = ".".join(["a" * 60] * 5)
        assert not is_valid_hostname(name)

    @given(_hostname)
    def test_generated_hostnames_valid(self, name):
        assert is_valid_hostname(name)


class TestPublicSuffix:
    def test_simple(self):
        assert public_suffix("example.com") == "com"

    def test_two_level(self):
        assert public_suffix("shop.example.co.uk") == "co.uk"

    def test_unknown(self):
        assert public_suffix("example.unknown-tld") is None


class TestRegistrableDomain:
    @pytest.mark.parametrize(
        "name, expected",
        [
            ("www.google.com", "google.com"),
            ("img.shop.example.co.uk", "example.co.uk"),
            ("example.com", "example.com"),
            ("com", None),
            ("co.uk", None),
            ("example.weirdtld", None),
        ],
    )
    def test_cases(self, name, expected):
        assert registrable_domain(name) == expected


class TestLabels:
    def test_empty(self):
        assert labels("") == []

    def test_split(self):
        assert labels("A.B.c") == ["a", "b", "c"]
