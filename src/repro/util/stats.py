"""Small statistics helpers used by the analysis layer.

The paper plots ``1 - CDF`` curves (Figure 2) and reports medians of
integer-valued distributions; these helpers provide exactly that without
pulling numpy into the core dependency graph (benchmarks may still use
numpy for speed).
"""

from __future__ import annotations

from collections import Counter
from typing import Iterable, Sequence

__all__ = ["ccdf", "median", "quantile", "counter_to_series"]


def ccdf(values: Iterable[int]) -> list[tuple[int, float]]:
    """Complementary CDF ``P(X >= x)`` evaluated at each support point.

    Returns ``(x, share)`` pairs sorted by ``x``; ``share`` is the
    fraction of samples that are ``>= x``.  Matches the paper's
    "1 - CDF, sites affected" axis where the y value at ``x`` is the
    share of sites with at least ``x`` redundant connections.

    >>> ccdf([0, 1, 1, 3])
    [(0, 1.0), (1, 0.75), (3, 0.25)]
    """
    counts = Counter(values)
    total = sum(counts.values())
    if total == 0:
        return []
    remaining = total
    out: list[tuple[int, float]] = []
    for x in sorted(counts):
        out.append((x, remaining / total))
        remaining -= counts[x]
    return out


def quantile(values: Sequence[float], q: float) -> float:
    """Inclusive linear-interpolation quantile (numpy's default method)."""
    if not values:
        raise ValueError("quantile of empty sequence")
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"q must be in [0, 1], got {q}")
    ordered = sorted(values)
    position = q * (len(ordered) - 1)
    lower = int(position)
    upper = min(lower + 1, len(ordered) - 1)
    fraction = position - lower
    value = ordered[lower] * (1 - fraction) + ordered[upper] * fraction
    # Each product rounds on its own, so equal subnormal neighbours can
    # land off the pair (median([5e-324, 5e-324]) is 0.0); clamp back.
    return min(max(value, ordered[lower]), ordered[upper])


def median(values: Sequence[float]) -> float:
    """The 0.5 quantile."""
    return quantile(values, 0.5)


def counter_to_series(
    counter: Counter, top: int | None = None
) -> list[tuple[str, int]]:
    """Sort a counter by descending count, then key, optionally truncated."""
    series = sorted(counter.items(), key=lambda item: (-item[1], item[0]))
    if top is not None:
        series = series[:top]
    return series
