"""Domain-name algebra.

A tiny, dependency-free subset of what a public-suffix-list library
provides, sufficient for the reproduction: normalisation, label access,
registrable-domain extraction and subdomain tests.

The synthetic ecosystem only mints names under a fixed set of public
suffixes (see :data:`PUBLIC_SUFFIXES`), mirroring the common suffixes in
the paper's tables (``.com``, ``.net``, ``.de``, ``.io``, ...), so a full
PSL is unnecessary; the module nonetheless handles two-level suffixes
such as ``co.uk`` correctly.
"""

from __future__ import annotations

from functools import lru_cache

__all__ = [
    "PUBLIC_SUFFIXES",
    "normalize",
    "labels",
    "is_valid_hostname",
    "public_suffix",
    "registrable_domain",
]

#: Public suffixes known to the synthetic ecosystem.  Two-level entries
#: must be listed explicitly.
PUBLIC_SUFFIXES: frozenset[str] = frozenset(
    {
        "com", "net", "org", "io", "de", "fr", "jp", "ru", "br", "cn",
        "info", "biz", "tv", "me", "co", "app", "dev", "cloud", "shop",
        "co.uk", "com.au", "co.jp", "com.br",
    }
)

_LABEL_CHARS = frozenset("abcdefghijklmnopqrstuvwxyz0123456789-")


_EDGE_CHARS = frozenset(" \t\r\n\v\f.")


def normalize(name: str) -> str:
    """Lower-case ``name`` and strip any trailing root dot."""
    # Fast path: almost every caller passes an already-normalised name
    # (hot loops re-normalise defensively); returning the same object
    # also keeps downstream dict lookups on identical keys.
    if name and name[0] not in _EDGE_CHARS and name[-1] not in _EDGE_CHARS \
            and name.islower():
        return name
    return name.strip().rstrip(".").lower()


def labels(name: str) -> list[str]:
    """Split a normalised name into its dot-separated labels."""
    name = normalize(name)
    if not name:
        return []
    return name.split(".")


@lru_cache(maxsize=1 << 16)
def is_valid_hostname(name: str) -> bool:
    """LDH-rule hostname validation (letters/digits/hyphens, ≤63/label).

    Pure per-name work that every ``Resource``/SAN construction repeats
    for the same few thousand names of a study, hence memoized.
    """
    parts = labels(name)
    if not parts or len(normalize(name)) > 253:
        return False
    for label in parts:
        if not label or len(label) > 63:
            return False
        if label.startswith("-") or label.endswith("-"):
            return False
        if not set(label) <= _LABEL_CHARS:
            return False
    return True


@lru_cache(maxsize=1 << 16)
def public_suffix(name: str) -> str | None:
    """Return the public suffix of ``name``, or ``None`` if unknown."""
    parts = labels(name)
    for take in (2, 1):
        if len(parts) >= take:
            candidate = ".".join(parts[-take:])
            if candidate in PUBLIC_SUFFIXES:
                return candidate
    return None


def registrable_domain(name: str) -> str | None:
    """The registrable ("second-level") domain, e.g. site of a shard.

    >>> registrable_domain("img.shop.example.co.uk")
    'example.co.uk'
    >>> registrable_domain("www.google.com")
    'google.com'

    Returns ``None`` when ``name`` *is* a bare public suffix or when the
    suffix is unknown.
    """
    return _registrable_domain_cached(normalize(name))


@lru_cache(maxsize=1 << 16)
def _registrable_domain_cached(name: str) -> str | None:
    suffix = public_suffix(name)
    if suffix is None:
        return None
    parts = labels(name)
    suffix_len = len(suffix.split("."))
    if len(parts) <= suffix_len:
        return None
    return ".".join(parts[-(suffix_len + 1):])
