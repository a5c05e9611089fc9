"""Tests for the deterministic RNG streams."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.util.rng import RngFactory, derive_seed, stable_hash


class TestStableHash:
    def test_deterministic(self):
        assert stable_hash("a", 1) == stable_hash("a", 1)

    def test_different_inputs_differ(self):
        assert stable_hash("a") != stable_hash("b")

    def test_order_matters(self):
        assert stable_hash("a", "b") != stable_hash("b", "a")

    def test_respects_bit_width(self):
        for bits in (8, 16, 32, 64, 128):
            assert stable_hash("x", bits=bits) < (1 << bits)

    def test_rejects_bad_bit_width(self):
        with pytest.raises(ValueError):
            stable_hash("x", bits=7)
        with pytest.raises(ValueError):
            stable_hash("x", bits=0)

    def test_separator_prevents_concatenation_collisions(self):
        assert stable_hash("ab", "c") != stable_hash("a", "bc")

    @given(st.integers(), st.text())
    def test_always_in_range(self, seed, name):
        assert 0 <= stable_hash(seed, name) < (1 << 64)


class TestRngFactory:
    def test_same_name_same_stream(self):
        factory = RngFactory(42)
        assert [factory.stream("x").random() for _ in range(3)] == [
            factory.stream("x").random() for _ in range(3)
        ]

    def test_different_names_decorrelated(self):
        factory = RngFactory(42)
        assert factory.stream("a").random() != factory.stream("b").random()

    def test_different_seeds_differ(self):
        assert RngFactory(1).stream("x").random() != RngFactory(2).stream("x").random()

    def test_child_namespacing(self):
        factory = RngFactory(42)
        child = factory.child("ns")
        assert child.stream("x").random() != factory.stream("x").random()
        assert child.stream("x").random() == RngFactory(
            derive_seed(42, "ns")
        ).stream("x").random()

    def test_shuffled_returns_permutation(self):
        factory = RngFactory(3)
        items = list(range(50))
        shuffled = factory.shuffled("s", items)
        assert sorted(shuffled) == items
        assert shuffled != items  # astronomically unlikely to be identity

    def test_shuffled_does_not_mutate_input(self):
        factory = RngFactory(3)
        items = [3, 1, 2]
        factory.shuffled("s", items)
        assert items == [3, 1, 2]
