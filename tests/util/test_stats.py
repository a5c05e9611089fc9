"""Tests for the statistics helpers."""

from __future__ import annotations

from collections import Counter

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.util.stats import ccdf, counter_to_series, median, quantile


class TestCcdf:
    def test_empty(self):
        assert ccdf([]) == []

    def test_single_value(self):
        assert ccdf([3]) == [(3, 1.0)]

    def test_documented_example(self):
        assert ccdf([0, 1, 1, 3]) == [(0, 1.0), (1, 0.75), (3, 0.25)]

    def test_first_share_is_one(self):
        assert ccdf([5, 9, 2])[0][1] == 1.0

    @given(st.lists(st.integers(min_value=0, max_value=30), min_size=1))
    def test_monotonically_decreasing(self, values):
        shares = [share for _, share in ccdf(values)]
        assert all(a >= b for a, b in zip(shares, shares[1:]))
        assert shares[0] == 1.0

    @given(st.lists(st.integers(min_value=0, max_value=30), min_size=1))
    def test_share_matches_definition(self, values):
        for x, share in ccdf(values):
            expected = sum(1 for v in values if v >= x) / len(values)
            assert share == pytest.approx(expected)


class TestQuantile:
    def test_median_odd(self):
        assert median([3, 1, 2]) == 2

    def test_median_even_interpolates(self):
        assert median([1, 2, 3, 4]) == 2.5

    def test_extremes(self):
        assert quantile([1, 2, 3], 0.0) == 1
        assert quantile([1, 2, 3], 1.0) == 3

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            quantile([], 0.5)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            quantile([1], 1.5)

    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False,
                              min_value=-1e9, max_value=1e9), min_size=1))
    @example([5e-324, 5e-324])  # equal subnormals: each half rounds to 0
    def test_within_bounds(self, values):
        result = median(values)
        assert min(values) <= result <= max(values)


class TestCounterToSeries:
    def test_sorted_by_count_then_key(self):
        counter = Counter({"b": 2, "a": 2, "c": 5})
        assert counter_to_series(counter) == [("c", 5), ("a", 2), ("b", 2)]

    def test_truncation(self):
        counter = Counter({"a": 3, "b": 2, "c": 1})
        assert counter_to_series(counter, top=2) == [("a", 3), ("b", 2)]
