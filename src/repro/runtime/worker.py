"""Worker-side ecosystem resolution, and the world index of a study.

Process-pool tasks cannot cheaply carry the whole synthetic world in
their pickled arguments, and they do not need to: the world is a pure
function of its :class:`~repro.web.ecosystem.EcosystemConfig`.  Tasks
therefore carry only the config; workers resolve it through a
per-process cache.  A crawl resolves its world in the parent before
its tasks fan out, so serial and thread executors (and forked process
workers) never regenerate anything, while spawned workers rebuild the
identical world once on first use.

The cache holds at most :data:`MAX_CACHED_WORLDS` worlds (LRU): sweeps
iterate over many ``(seed, n_sites)`` configurations, and without a
bound every world of every cell would stay resident for the life of
the process.  Evicted worlds simply regenerate on next use.

A study itself needs only the world's
:class:`~repro.web.ecosystem.WorldIndex`.  :func:`world_index_for`
takes it from the in-process world, then from the study cache (kind
``world``, key :func:`world_key`), and only then builds the world and
writes its index, so a study whose every shard is cached builds no
world at all.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import TYPE_CHECKING

from repro.store import stable_key
from repro.web.ecosystem import Ecosystem, EcosystemConfig, WorldIndex

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.store import StudyCache

__all__ = [
    "ecosystem_for",
    "ecosystem_is_cached",
    "clear_ecosystem_cache",
    "world_index_for",
    "world_index_is_cached",
    "world_key",
]

#: Retained worlds per process; small, because one study uses one world
#: and only adjacent sweep cells benefit from extras.
MAX_CACHED_WORLDS = 4

# thread-safe: every access goes through _LOCK below.  Thread-executor
# tasks all call ecosystem_for() on the shared per-process cache, and
# even hits mutate it (the LRU move_to_end), so lookups and insertions
# must be atomic; process workers each own a private copy.
_CACHE: "OrderedDict[EcosystemConfig, Ecosystem]" = OrderedDict()
_LOCK = threading.Lock()


def _insert(config: EcosystemConfig, ecosystem: Ecosystem) -> None:
    with _LOCK:
        _CACHE[config] = ecosystem
        _CACHE.move_to_end(config)
        while len(_CACHE) > MAX_CACHED_WORLDS:
            _CACHE.popitem(last=False)


def ecosystem_is_cached(config: EcosystemConfig) -> bool:
    """Whether :func:`ecosystem_for` would hit (no regeneration)."""
    with _LOCK:
        return config in _CACHE


def ecosystem_for(config: EcosystemConfig) -> Ecosystem:
    """The world for ``config``, regenerated deterministically on miss.

    Concurrent misses for the same config may both regenerate; worlds
    are pure functions of their config, so last-insert-wins leaves an
    identical object either way.
    """
    with _LOCK:
        ecosystem = _CACHE.get(config)
    if ecosystem is None:
        ecosystem = Ecosystem.generate(config)
    _insert(config, ecosystem)
    return ecosystem


def clear_ecosystem_cache() -> None:
    """Drop all cached worlds (tests only)."""
    with _LOCK:
        _CACHE.clear()


def world_key(config: EcosystemConfig) -> str:
    """The study-cache key of ``config``'s world index (kind ``world``)."""
    return stable_key("world", config)


def world_index_is_cached(
    config: EcosystemConfig, cache: "StudyCache | None" = None
) -> bool:
    """Whether :func:`world_index_for` would build no world.

    Like a crawl plan's ``cached`` flag, this is accounting only: an
    entry that turns out damaged on load is rebuilt all the same.
    """
    return ecosystem_is_cached(config) or (
        cache is not None and cache.contains("world", world_key(config))
    )


def world_index_for(
    config: EcosystemConfig, cache: "StudyCache | None" = None
) -> WorldIndex:
    """The :class:`WorldIndex` of ``config``'s world.

    Taken from the in-process world, else from ``cache``, else from a
    newly built world (kept in process, as by :func:`ecosystem_for`).
    Whenever the cache lacked the index it is written, so a cached
    study always leaves its world index behind; a damaged entry counts
    as a miss (see :meth:`~repro.store.StudyCache.get`) and heals here.
    """
    with _LOCK:
        ecosystem = _CACHE.get(config)
    if cache is None:
        return (ecosystem or ecosystem_for(config)).index
    key = world_key(config)
    if ecosystem is not None:
        index = ecosystem.index
        if not cache.contains("world", key):
            cache.put("world", key, index)
        return index
    index = cache.get("world", key)
    if index is None:
        index = ecosystem_for(config).index
        cache.put("world", key, index)
    return index
