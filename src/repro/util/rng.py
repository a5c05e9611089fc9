"""Deterministic random-number streams.

Every stochastic component of the reproduction draws from a named child
stream of a single root seed, so an entire study (ecosystem generation,
crawls, DNS load balancing, logging noise) is exactly reproducible from
one integer.

The derivation is stable across processes and Python versions: child
seeds are computed by hashing ``(root_seed, name)`` with BLAKE2b rather
than relying on :func:`hash`, which is salted per process.
"""

from __future__ import annotations

import hashlib
import random
from typing import Sequence, TypeVar

T = TypeVar("T")

__all__ = ["derive_seed", "RngFactory", "stable_hash"]


def stable_hash(*parts: object, bits: int = 64) -> int:
    """Return a process-stable hash of ``parts`` with ``bits`` bits.

    Parts are rendered with :func:`repr`, so only use values whose repr
    is stable (str, int, tuples thereof).
    """
    if bits <= 0 or bits % 8 != 0:
        raise ValueError(f"bits must be a positive multiple of 8, got {bits}")
    digest = hashlib.blake2b(
        "\x1f".join(repr(part) for part in parts).encode("utf-8"),
        digest_size=bits // 8,
    ).digest()
    return int.from_bytes(digest, "big")


def derive_seed(root_seed: int, name: str) -> int:
    """Derive a child seed for stream ``name`` from ``root_seed``."""
    return stable_hash(root_seed, name)


class RngFactory:
    """Factory of independent, named :class:`random.Random` streams.

    >>> rng = RngFactory(seed=42)
    >>> a = rng.stream("dns")
    >>> b = rng.stream("dns")
    >>> a.random() == b.random()
    True

    Streams with different names are decorrelated; the same name always
    yields a stream with identical output.
    """

    def __init__(self, seed: int = 0) -> None:
        self.seed = int(seed)

    def stream(self, name: str) -> random.Random:
        """Return a fresh :class:`random.Random` for stream ``name``."""
        return random.Random(derive_seed(self.seed, name))

    def child(self, name: str) -> "RngFactory":
        """Return a factory whose streams are namespaced under ``name``."""
        return RngFactory(derive_seed(self.seed, name))

    def shuffled(self, name: str, items: Sequence[T]) -> list[T]:
        """Return a deterministically shuffled copy of ``items``."""
        out = list(items)
        self.stream(name).shuffle(out)
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RngFactory(seed={self.seed})"
