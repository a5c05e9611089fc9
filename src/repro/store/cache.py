"""The content-addressed on-disk study cache.

Every expensive stage of the study pipeline — the HTTP Archive crawl,
the two Alexa crawls, per-dataset classification — is a pure function
of its configuration (the ecosystem config, the stage's seed and knobs,
and the domain list).  The cache exploits that: each stage artefact is
stored under a stable hash of exactly those inputs, so re-running a
study (or a sweep cell) with an unchanged configuration loads the
artefact from disk instead of recomputing it, and *different* cells
that share a stage configuration — e.g. lifetime-model variants over
the same crawl — share one cached entry.

Invalidation is purely by hash: change any contributing knob (or bump
:data:`CACHE_FORMAT` when the artefact layout changes) and the key
changes, leaving the stale entry unreferenced.  ``StudyCache.prune()``
removes entries that are no longer reachable from a set of live keys.

Layout on disk::

    <cache-dir>/
        har-crawl/<key>.pkl      one pickled HarCorpus per crawl config
        alexa-crawl/<key>.pkl    one pickled AlexaRun per run config
        classify/<key>.pkl       one pickled ClassifiedDataset
        world/<key>.pkl          one pickled WorldIndex per EcosystemConfig
        alexa-share/<key>.pkl    one Alexa shard index's sorted share of
                                 the common sites, as a tuple

The payloads are pickles of this package's own dataclasses; the cache
is trusted local state, not an interchange format.  The slotted
session records in them pickle through a field-name tuple computed
once per class, whose state bytes match what ``dataclasses`` writes;
that is why that speed-up did not move :data:`CACHE_FORMAT`.  Adding,
removing or reordering a field of ``SessionRecord`` or
``RequestSummary`` still needs a ``CACHE_FORMAT`` bump.  The ``set``
fields of a classification pickle as sorted lists (and load from either
form), so every artefact's bytes are the same under every
``PYTHONHASHSEED``.

The ``world`` entry is a :class:`~repro.web.ecosystem.WorldIndex`: the
domain lists, evolution ledger and AS database a study reads from its
world.  A study whose every shard is cached loads it instead of
building the synthetic ecosystem, which is built (and shared between
studies of one process via :func:`repro.runtime.ecosystem_for`) only
when a shard must be crawled.

A warm study loads only what it reads: the world index, every classify
shard and, per Alexa shard index, the ``alexa-share`` sidecar that
keys its classify shards.  A crawl shard whose classify shards are all
cached stays on disk until the study's crawl fields are read.

Keys are pure functions of their parts — equal by value, sensitive to
every knob:

>>> from repro.store import stable_key
>>> stable_key("alexa-crawl", 7, ("a.com", "b.com")) == \\
...     stable_key("alexa-crawl", 7, ("a.com", "b.com"))
True
>>> stable_key("alexa-crawl", 7, ("a.com",)) == \\
...     stable_key("alexa-crawl", 8, ("a.com",))
False

And round-trips store whatever pickles:

>>> import tempfile
>>> from repro.store import StudyCache
>>> with tempfile.TemporaryDirectory() as tmp:
...     cache = StudyCache(tmp)
...     _ = cache.put("classify", stable_key("demo"), {"sites": 3})
...     cache.get("classify", stable_key("demo"))
{'sites': 3}
"""

from __future__ import annotations

import hashlib
import os
import pickle
import re
import tempfile
import threading
from dataclasses import dataclass, fields, is_dataclass
from enum import Enum
from pathlib import Path
from typing import Any, Iterator

__all__ = [
    "CACHE_FORMAT",
    "KNOWN_KINDS",
    "CacheStats",
    "StudyCache",
    "stable_key",
]

#: Bump when the pickled artefact layout changes incompatibly; every
#: key embeds it, so old entries simply stop matching.  Format 2:
#: EcosystemConfig grew the evolution axes (evolution_policy, epoch).
#: Format 3: stage artefacts are stored per shard under per-site-set
#: keys (base ecosystem config + evolution token + the shard's domain
#: tuple) instead of one whole-study entry per stage.  Format 4:
#: SiteClassification grew the h3 protocol split (h3_connections and
#: joint h2+h3 record lists under an active h3_profile).
CACHE_FORMAT = 4

#: The artefact kinds the cache stores.  ``_path`` validates against
#: this set so a malformed kind can never address a directory outside
#: the cache layout.
KNOWN_KINDS = frozenset({
    "har-crawl", "alexa-crawl", "classify", "world", "alexa-share",
})

#: Keys are :func:`stable_key` digests: 32 lowercase hex characters.
#: Anything else (``..``, ``..\\``, absolute paths) is rejected before
#: it can form a filesystem path.
_KEY_PATTERN = re.compile(r"[0-9a-f]{32}")


def _canonical(value: Any) -> Any:
    """A stable, hashable-by-repr view of a stage-config value.

    Dataclasses flatten to ``(classname, (field, value), ...)``; dicts
    sort their items; sets sort their elements; enums use their value.
    The result's ``repr`` is deterministic across processes (no ids,
    no hash ordering), which is what :func:`stable_key` hashes.
    """
    if is_dataclass(value) and not isinstance(value, type):
        return (
            type(value).__name__,
            tuple(
                (spec.name, _canonical(getattr(value, spec.name)))
                for spec in fields(value)
            ),
        )
    if isinstance(value, dict):
        return tuple(
            (_canonical(key), _canonical(value[key]))
            for key in sorted(value, key=repr)
        )
    if isinstance(value, (list, tuple)):
        return tuple(_canonical(item) for item in value)
    if isinstance(value, (set, frozenset)):
        return tuple(sorted((_canonical(item) for item in value), key=repr))
    if isinstance(value, Enum):
        return (type(value).__name__, value.value)
    if value is None or isinstance(value, (bool, int, float, str, bytes)):
        return value
    raise TypeError(
        f"cannot build a stable cache key from {type(value).__name__!r}"
    )


def stable_key(*parts: Any) -> str:
    """Hex digest identifying one stage configuration.

    Equal configurations (by value, not identity) produce equal keys in
    every process and on every run; any changed knob changes the key.
    """
    hasher = hashlib.blake2b(digest_size=16)
    hasher.update(repr(_canonical((CACHE_FORMAT,) + parts)).encode())
    return hasher.hexdigest()


@dataclass
class CacheStats:
    """Hit/miss/write/error counters for one artefact kind.

    ``errors`` counts entries that existed on disk but could not be
    loaded (truncated or corrupt pickles); each such entry is evicted
    and also counted as a miss, so ``lookups`` stays consistent.
    """

    hits: int = 0
    misses: int = 0
    writes: int = 0
    errors: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses


class StudyCache:
    """Content-addressed pickle store for stage artefacts.

    One instance may serve many studies and sweep cells concurrently
    within a process; writes are atomic (write-to-temp + rename), so a
    crashed run never leaves a truncated artefact behind.  The hit/miss
    counters are lock-guarded, so concurrent server requests sharing
    one cache count every lookup exactly once (the on-disk entries were
    already safe; the *stats* used to race).
    """

    def __init__(self, directory: str | os.PathLike) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        # thread-safe: every mutation goes through _record() under
        # _stats_lock; readers take snapshots under the same lock.
        self.counters: dict[str, CacheStats] = {}
        self._stats_lock = threading.Lock()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"StudyCache({str(self.directory)!r})"

    # ------------------------------------------------------------------
    def _path(self, kind: str, key: str) -> Path:
        if kind not in KNOWN_KINDS:
            raise ValueError(
                f"unknown cache kind {kind!r}; expected one of "
                f"{sorted(KNOWN_KINDS)}"
            )
        if not _KEY_PATTERN.fullmatch(key):
            raise ValueError(
                f"bad cache key {key!r}; expected a 32-character hex "
                f"digest from stable_key()"
            )
        return self.directory / kind / f"{key}.pkl"

    def _record(self, kind: str, *, hits: int = 0, misses: int = 0,
               writes: int = 0, errors: int = 0) -> None:
        """Atomically bump one kind's counters.

        ``setdefault`` plus the bare ``+=`` used to run unlocked; two
        server threads touching the same kind could interleave the
        read-modify-write and lose (or double-count) increments.  All
        counter traffic now serialises on one lock — file I/O stays
        outside it, so the hot path is untouched.
        """
        with self._stats_lock:
            stats = self.counters.setdefault(kind, CacheStats())
            stats.hits += hits
            stats.misses += misses
            stats.writes += writes
            stats.errors += errors

    def total_stats(self) -> CacheStats:
        """Counters summed across kinds (a snapshot, not a live view)."""
        total = CacheStats()
        for stats in self._snapshot().values():
            total.hits += stats.hits
            total.misses += stats.misses
            total.writes += stats.writes
            total.errors += stats.errors
        return total

    def _snapshot(self) -> dict[str, CacheStats]:
        """A consistent copy of the per-kind counters."""
        with self._stats_lock:
            return {
                kind: CacheStats(
                    hits=stats.hits, misses=stats.misses,
                    writes=stats.writes, errors=stats.errors,
                )
                for kind, stats in sorted(self.counters.items())
            }

    def stats_snapshot(self) -> dict[str, dict[str, int]]:
        """Per-kind counters as plain JSON-ready dicts (for ``healthz``)."""
        return {
            kind: {
                "hits": stats.hits,
                "misses": stats.misses,
                "writes": stats.writes,
                "errors": stats.errors,
            }
            for kind, stats in self._snapshot().items()
        }

    def contains(self, kind: str, key: str) -> bool:
        """Whether an artefact exists (does not touch the counters)."""
        return self._path(kind, key).exists()

    def get(self, kind: str, key: str) -> Any | None:
        """The cached artefact, or ``None`` on miss.

        Opens the file directly (no ``exists()`` pre-check) so a
        concurrent ``prune()`` between check and open degrades to a
        plain miss.  An entry that exists but cannot be unpickled —
        truncated by a crashed writer, corrupted on disk — is evicted,
        counted under ``errors``, and reported as a miss; a cached
        stage never kills the study it was meant to speed up.
        """
        path = self._path(kind, key)
        try:
            with path.open("rb") as handle:
                artefact = pickle.load(handle)
        except FileNotFoundError:
            self._record(kind, misses=1)
            return None
        except Exception:
            # Unpickling a damaged file can raise almost anything
            # (UnpicklingError, EOFError, AttributeError, ...); all of
            # them mean the same thing here: the entry is unusable.
            self._record(kind, errors=1, misses=1)
            try:
                path.unlink()
            except FileNotFoundError:  # pragma: no cover - racing prune
                pass
            return None
        self._record(kind, hits=1)
        return artefact

    def put(self, kind: str, key: str, artefact: Any) -> Path:
        """Store ``artefact`` under ``kind``/``key`` atomically."""
        path = self._path(kind, key)
        path.parent.mkdir(parents=True, exist_ok=True)
        handle, temp_name = tempfile.mkstemp(
            dir=path.parent, suffix=".tmp"
        )
        try:
            with os.fdopen(handle, "wb") as stream:
                pickle.dump(artefact, stream, protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(temp_name, path)
        except BaseException:
            try:
                os.unlink(temp_name)
            except FileNotFoundError:  # pragma: no cover - already moved
                pass
            raise
        self._record(kind, writes=1)
        return path

    # ------------------------------------------------------------------
    def entries(self) -> Iterator[tuple[str, str]]:
        """All valid ``(kind, key)`` pairs currently on disk.

        Files that do not fit the layout — unknown kind directories,
        names that are not hex digests — are ignored rather than
        yielded, so ``prune`` never tries to address them.
        """
        for kind_dir in sorted(self.directory.iterdir()):
            if not kind_dir.is_dir() or kind_dir.name not in KNOWN_KINDS:
                continue
            for path in sorted(kind_dir.glob("*.pkl")):
                if _KEY_PATTERN.fullmatch(path.stem):
                    yield kind_dir.name, path.stem

    def prune(self, live: set[tuple[str, str]]) -> int:
        """Delete entries not in ``live``; returns the removed count.

        Safe against concurrent prunes of the same directory: an entry
        that vanishes between listing and unlink is simply skipped, and
        only files this call actually removed are counted.
        """
        removed = 0
        for kind, key in list(self.entries()):
            if (kind, key) not in live:
                try:
                    self._path(kind, key).unlink()
                except FileNotFoundError:
                    continue
                removed += 1
        return removed

    def render_stats(self) -> str:
        """An aligned per-kind counter table for ``--profile`` output."""
        from repro.util.formatting import align_table

        rows = [
            [kind, str(stats.hits), str(stats.misses), str(stats.writes),
             str(stats.errors)]
            for kind, stats in self._snapshot().items()
        ]
        if not rows:
            return "Cache: no lookups"
        body = align_table(
            rows, header=["Kind", "Hits", "Misses", "Writes", "Errors"]
        )
        return f"Cache ({self.directory})\n{body}"
