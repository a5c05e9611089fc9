"""The durable run journal: append-only, fsync'd, torn-tail tolerant.

One JSONL file per run, living under ``<cache-dir>/runs/<run-id>.jsonl``
(a directory the cache's ``entries()``/``prune()`` never touch).  Each
line is a self-checking envelope::

    {"crc": "<blake2b-4 of the canonical record JSON>", "record": {...}}

Records carry a monotonically increasing ``seq`` instead of wall-clock
timestamps — the tree-wide determinism lint bans wall time in ``src``,
and resume logic only ever needs *order*, never time.  ``repro runs``
displays the journal file's mtime for humans instead.

Crash safety comes from two halves:

* every :meth:`RunJournal.append` writes and flushes its line, so a
  record once appended survives the process dying the next instant
  (SIGKILL included), and every *synced* append also ``fsync``\\ s,
  which makes it and every earlier record survive power loss.  One
  record kind is appended unsynced: ``shard-skip``, the note that a
  shard's artefact was already cached.  The next synced append, or
  :meth:`RunJournal.close`, makes it durable.  Power loss before then
  can drop it, and a resume then probes the cache again and gets the
  same answer; ``StudyCache.put`` never fsyncs artefacts either, so
  syncing a skip made nothing more durable.  A warm study thus
  fsyncs twice (``run-start``, ``run-finish``), not once per shard;
* :func:`load_records` validates line by line (CRC + JSON + envelope
  shape) and stops at the first bad line, so a torn tail — half a line
  written when the power went — degrades to "the run ended one record
  earlier", never to an unreadable journal.  Resuming truncates the
  file back to that valid prefix before appending.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Iterable

from repro.runlog.errors import JournalSchemaError, RunJournalError

__all__ = [
    "RUNLOG_SCHEMA",
    "ReplayState",
    "RunJournal",
    "journal_dir",
    "load_records",
    "run_id",
]

#: Bump when the record vocabulary changes incompatibly; the run id
#: embeds it, so old journals are simply never matched for resume.
RUNLOG_SCHEMA = 1


def run_id(config: Any) -> str:
    """The journal identity of one study configuration.

    A :func:`repro.store.stable_key` over the config with its execution
    substrate normalised away: a run interrupted under ``process:8``
    must resume under ``serial`` (or any other executor) against the
    same journal, because executors never change study output.
    """
    from repro.store import stable_key

    normalised = replace(config, executor="serial", parallelism=None)
    return stable_key("runlog", RUNLOG_SCHEMA, normalised)


def journal_dir(cache_directory: str | os.PathLike) -> Path:
    """Where a cache directory keeps its run journals."""
    return Path(cache_directory) / "runs"


def _crc(payload: str) -> str:
    return hashlib.blake2b(payload.encode(), digest_size=4).hexdigest()


def _encode(record: dict) -> str:
    """One journal line (newline included) for ``record``."""
    payload = json.dumps(record, sort_keys=True, separators=(",", ":"))
    envelope = {"crc": _crc(payload), "record": record}
    return json.dumps(envelope, sort_keys=True, separators=(",", ":")) + "\n"


def _decode(line: bytes) -> dict | None:
    """The record of one journal line, or ``None`` if the line is bad."""
    try:
        envelope = json.loads(line)
    except (json.JSONDecodeError, UnicodeDecodeError):
        return None
    if not isinstance(envelope, dict) or set(envelope) != {"crc", "record"}:
        return None
    record = envelope["record"]
    if not isinstance(record, dict):
        return None
    payload = json.dumps(record, sort_keys=True, separators=(",", ":"))
    if envelope["crc"] != _crc(payload):
        return None
    return record


def _load(path: Path) -> tuple[list[dict], int]:
    """``(valid records, byte length of the valid prefix)`` of ``path``."""
    try:
        raw = path.read_bytes()
    except FileNotFoundError:
        return [], 0
    records: list[dict] = []
    offset = 0
    for line in raw.splitlines(keepends=True):
        record = _decode(line) if line.endswith(b"\n") else None
        if record is None:
            break
        records.append(record)
        offset += len(line)
    return records, offset


def load_records(path: str | os.PathLike) -> list[dict]:
    """Every valid record of a journal, tolerating a torn/corrupt tail.

    The result is always a prefix of what was appended: validation
    stops at the first unreadable line (truncated write, flipped bits,
    a line missing its newline), so a crash mid-append costs at most
    the record being written.
    """
    records, _ = _load(Path(path))
    return records


@dataclass
class ReplayState:
    """What a loaded journal says about a run's progress.

    ``finished`` maps each finished shard's journal key to its artefact
    cache key; ``quarantined`` holds keys whose *latest* verdict was
    poison quarantine (a later finish clears the key — a resumed run
    that recovers a shard un-quarantines it); ``completed`` is whether
    a ``run-finish`` record closed the run.
    """

    finished: dict[str, str | None] = field(default_factory=dict)
    quarantined: set[str] = field(default_factory=set)
    completed: bool = False
    status: str | None = None

    @classmethod
    def from_records(cls, records: Iterable[dict]) -> "ReplayState":
        state = cls()
        for record in records:
            event = record.get("event")
            key = record.get("key")
            if event == "shard-finish" and isinstance(key, str):
                state.finished[key] = record.get("artifact")
                state.quarantined.discard(key)
            elif event == "shard-quarantined" and isinstance(key, str):
                state.quarantined.add(key)
                state.finished.pop(key, None)
            elif event == "run-finish":
                state.completed = True
                state.status = record.get("status")
        return state


class RunJournal:
    """Append-only journal of one run.

    Every append is flushed; every append but a ``sync=False`` one is
    also fsynced, and a synced record makes every earlier record
    durable.  ``close()`` fsyncs whatever unsynced records are pending.
    """

    def __init__(self, path: Path, *, records: list[dict],
                 handle) -> None:
        self.path = path
        self.records = records
        self._handle = handle
        #: Called as ``observer(record)`` after each append — the
        #: record is already flushed (and fsync'd, unless appended with
        #: ``sync=False``) when the observer sees it, so an observer
        #: that raises (the serve layer's drain signal) leaves the
        #: journal resumable; ``close()`` syncs what is pending.
        self.observer = None
        self._unsynced = False
        self._seq = max(
            (record.get("seq", -1) for record in records
             if isinstance(record.get("seq"), int)),
            default=-1,
        ) + 1

    # ------------------------------------------------------------------
    @classmethod
    def fresh(cls, path: str | os.PathLike, *, run: str,
              meta: dict | None = None) -> "RunJournal":
        """Start a new journal, discarding any previous file at ``path``."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        handle = path.open("wb")
        journal = cls(path, records=[], handle=handle)
        journal.append({
            "event": "run-start", "run": run, "schema": RUNLOG_SCHEMA,
            **(meta or {}),
        })
        return journal

    @classmethod
    def resume(cls, path: str | os.PathLike, *, run: str) -> "RunJournal":
        """Reopen an interrupted journal, truncating any torn tail.

        Raises :class:`RunJournalError` when no journal exists to
        resume, and :class:`JournalSchemaError` when the journal's
        ``run-start`` record names a different run id or schema.
        """
        path = Path(path)
        records, valid_length = _load(path)
        if not records:
            raise RunJournalError(
                f"no resumable journal at {path}; run without --resume "
                f"to start fresh"
            )
        head = records[0]
        if head.get("event") != "run-start":
            raise JournalSchemaError(
                f"journal {path} does not start with a run-start record"
            )
        if head.get("schema") != RUNLOG_SCHEMA or head.get("run") != run:
            raise JournalSchemaError(
                f"journal {path} belongs to run {head.get('run')!r} "
                f"schema {head.get('schema')!r}; expected {run!r} "
                f"schema {RUNLOG_SCHEMA!r}"
            )
        handle = path.open("r+b")
        handle.truncate(valid_length)
        handle.seek(valid_length)
        return cls(path, records=records, handle=handle)

    # ------------------------------------------------------------------
    @property
    def replay(self) -> ReplayState:
        return ReplayState.from_records(self.records)

    def append(self, record: dict, *, sync: bool = True) -> dict:
        """Append one record (``seq`` is assigned here).

        The line is flushed, so it survives the process dying.  With
        ``sync`` the file is also fsynced, so it and every earlier
        record survive power loss; ``sync=False`` leaves that to the
        next synced append or :meth:`close`.
        """
        if self._handle is None:
            raise RunJournalError(
                f"journal {self.path} is closed; cannot append"
            )
        record = {**record, "seq": self._seq}
        self._seq += 1
        self._handle.write(_encode(record).encode())
        self._handle.flush()
        if sync:
            os.fsync(self._handle.fileno())
        self._unsynced = not sync
        self.records.append(record)
        if self.observer is not None:
            self.observer(record)
        return record

    def close(self) -> None:
        """Fsync any unsynced records and release the file handle
        (idempotent)."""
        if self._handle is not None:
            handle, self._handle = self._handle, None
            try:
                if self._unsynced:
                    os.fsync(handle.fileno())
                    self._unsynced = False
            finally:
                handle.close()

    def __enter__(self) -> "RunJournal":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
