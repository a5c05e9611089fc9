"""Shared utilities: deterministic RNG, simulated time, formatting, stats."""

from repro.util.clock import SimClock
from repro.util.formatting import align_table, pct, si_count
from repro.util.rng import RngFactory, derive_seed, stable_hash
from repro.util.stats import ccdf, median, quantile

__all__ = [
    "SimClock",
    "align_table",
    "pct",
    "si_count",
    "RngFactory",
    "derive_seed",
    "stable_hash",
    "ccdf",
    "median",
    "quantile",
]
