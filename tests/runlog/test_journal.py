"""The durable journal: round-trips, torn tails, replay semantics."""

from __future__ import annotations

import json
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.study import StudyConfig
from repro.runlog import (
    JournalSchemaError,
    ReplayState,
    RunJournal,
    RunJournalError,
    journal_dir,
    load_records,
    run_id,
)


def _fresh(tmp_path, run="r1", n=0):
    journal = RunJournal.fresh(tmp_path / "j.jsonl", run=run)
    for index in range(n):
        journal.append({"event": "shard-finish", "stage": "s",
                        "key": f"k{index}", "artifact": f"a{index}"})
    return journal


class TestRoundTrip:
    def test_append_then_load(self, tmp_path):
        journal = _fresh(tmp_path, n=3)
        journal.close()
        records = load_records(tmp_path / "j.jsonl")
        assert [record["event"] for record in records] == [
            "run-start", "shard-finish", "shard-finish", "shard-finish"
        ]
        assert [record["seq"] for record in records] == [0, 1, 2, 3]

    def test_append_survives_without_close(self, tmp_path):
        # flush-on-append: the record is in the file the moment append
        # returns, so it survives the process dying with no close (the
        # crash-safety contract); a synced append is fsynced too.
        journal = _fresh(tmp_path, n=2)
        records = load_records(tmp_path / "j.jsonl")
        journal.close()
        assert len(records) == 3

    def test_closed_journal_refuses_append(self, tmp_path):
        journal = _fresh(tmp_path)
        journal.close()
        journal.close()  # idempotent
        with pytest.raises(RunJournalError):
            journal.append({"event": "shard-finish", "key": "k"})

    def test_missing_file_loads_empty(self, tmp_path):
        assert load_records(tmp_path / "nope.jsonl") == []


class TestSync:
    """Synced appends fsync; ``sync=False`` appends wait for the next
    synced append or ``close()``."""

    @staticmethod
    def _count_fsyncs(monkeypatch) -> list:
        calls = []
        real = os.fsync

        def counted(fd):
            calls.append(fd)
            real(fd)

        monkeypatch.setattr("repro.runlog.journal.os.fsync", counted)
        return calls

    def test_unsynced_record_is_loadable_before_close(self, tmp_path,
                                                      monkeypatch):
        calls = self._count_fsyncs(monkeypatch)
        journal = _fresh(tmp_path)
        journal.append({"event": "shard-skip", "key": "k"}, sync=False)
        records = load_records(tmp_path / "j.jsonl")
        assert [record["event"] for record in records] == [
            "run-start", "shard-skip"
        ]
        assert len(calls) == 1  # run-start only
        journal.close()

    def test_close_fsyncs_pending_records(self, tmp_path, monkeypatch):
        calls = self._count_fsyncs(monkeypatch)
        journal = _fresh(tmp_path)
        for index in range(3):
            journal.append({"event": "shard-skip", "key": f"k{index}"},
                           sync=False)
        assert len(calls) == 1
        journal.close()
        assert len(calls) == 2
        journal.close()  # idempotent, nothing left to sync
        assert len(calls) == 2

    def test_synced_append_covers_earlier_records(self, tmp_path,
                                                  monkeypatch):
        calls = self._count_fsyncs(monkeypatch)
        journal = _fresh(tmp_path)
        journal.append({"event": "shard-skip", "key": "k"}, sync=False)
        journal.append({"event": "run-finish", "status": "complete"})
        assert len(calls) == 2
        journal.close()  # nothing pending: no third fsync
        assert len(calls) == 2


class TestTornTail:
    def test_half_written_line_is_dropped(self, tmp_path):
        journal = _fresh(tmp_path, n=2)
        journal.close()
        path = tmp_path / "j.jsonl"
        with path.open("ab") as handle:
            handle.write(b'{"crc": "dead", "record": {"event": "shard-')
        records = load_records(path)
        assert len(records) == 3  # run-start + 2 finishes, tail dropped

    def test_flipped_bits_stop_the_prefix(self, tmp_path):
        journal = _fresh(tmp_path, n=3)
        journal.close()
        path = tmp_path / "j.jsonl"
        lines = path.read_bytes().splitlines(keepends=True)
        lines[2] = lines[2].replace(b"shard-finish", b"shard-fXnish")
        path.write_bytes(b"".join(lines))
        records = load_records(path)
        # CRC catches the flip; everything after it is untrusted too.
        assert len(records) == 2

    @settings(max_examples=60, deadline=None)
    @given(
        n_records=st.integers(min_value=0, max_value=6),
        cut=st.integers(min_value=0, max_value=2000),
    )
    def test_any_truncation_loads_a_valid_prefix(
        self, tmp_path_factory, n_records, cut
    ):
        """The crash-safety property: however many trailing bytes a
        crash tore off, the journal loads to an exact prefix of what
        was appended."""
        tmp_path = tmp_path_factory.mktemp("journal")
        journal = _fresh(tmp_path, n=n_records)
        journal.close()
        path = tmp_path / "j.jsonl"
        raw = path.read_bytes()
        expected = load_records(path)
        truncated = raw[: min(cut, len(raw))]
        path.write_bytes(truncated)
        records = load_records(path)
        assert records == expected[: len(records)]
        # And every surviving record is bytewise intact, not repaired.
        for record, line in zip(
            records, truncated.splitlines(keepends=True)
        ):
            assert json.loads(line)["record"] == record


class TestResume:
    def test_resume_continues_the_seq(self, tmp_path):
        _fresh(tmp_path, n=2).close()
        journal = RunJournal.resume(tmp_path / "j.jsonl", run="r1")
        appended = journal.append({"event": "shard-finish", "key": "k9"})
        journal.close()
        assert appended["seq"] == 3
        assert len(load_records(tmp_path / "j.jsonl")) == 4

    def test_resume_truncates_a_torn_tail(self, tmp_path):
        _fresh(tmp_path, n=2).close()
        path = tmp_path / "j.jsonl"
        with path.open("ab") as handle:
            handle.write(b"garbage tail without newline")
        journal = RunJournal.resume(path, run="r1")
        journal.append({"event": "run-finish", "status": "complete"})
        journal.close()
        records = load_records(path)
        assert [record["event"] for record in records] == [
            "run-start", "shard-finish", "shard-finish", "run-finish"
        ]
        # The file itself is clean again: full reparse sees every line.
        assert len(path.read_bytes().splitlines()) == 4

    def test_resume_missing_journal_raises(self, tmp_path):
        with pytest.raises(RunJournalError):
            RunJournal.resume(tmp_path / "j.jsonl", run="r1")

    def test_resume_wrong_run_raises(self, tmp_path):
        _fresh(tmp_path, run="r1").close()
        with pytest.raises(JournalSchemaError):
            RunJournal.resume(tmp_path / "j.jsonl", run="r2")

    def test_resume_headless_journal_raises(self, tmp_path):
        journal = RunJournal.fresh(tmp_path / "j.jsonl", run="r1")
        journal.close()
        path = tmp_path / "j.jsonl"
        # Drop the run-start line, leaving a valid non-head record.
        body = RunJournal.fresh(tmp_path / "k.jsonl", run="r1")
        body.append({"event": "shard-finish", "key": "k0"})
        body.close()
        lines = (tmp_path / "k.jsonl").read_bytes().splitlines(keepends=True)
        path.write_bytes(lines[1])
        with pytest.raises(JournalSchemaError):
            RunJournal.resume(path, run="r1")


class TestReplayState:
    def test_finish_and_quarantine_interplay(self):
        state = ReplayState.from_records([
            {"event": "run-start", "run": "r"},
            {"event": "shard-finish", "key": "a", "artifact": "art-a"},
            {"event": "shard-quarantined", "key": "b"},
            {"event": "shard-quarantined", "key": "a"},
            {"event": "shard-finish", "key": "b", "artifact": "art-b"},
        ])
        # Latest verdict wins in both directions.
        assert state.finished == {"b": "art-b"}
        assert state.quarantined == {"a"}
        assert not state.completed

    def test_run_finish_closes(self):
        state = ReplayState.from_records([
            {"event": "run-start", "run": "r"},
            {"event": "run-finish", "status": "partial"},
        ])
        assert state.completed
        assert state.status == "partial"


class TestRunId:
    def test_executor_is_normalised_away(self):
        base = StudyConfig(seed=7, n_sites=120, shards=4)
        pooled = StudyConfig(
            seed=7, n_sites=120, shards=4,
            executor="process:8", parallelism=8,
        )
        assert run_id(base) == run_id(pooled)

    def test_everything_else_matters(self):
        base = StudyConfig(seed=7, n_sites=120, shards=4)
        assert run_id(base) != run_id(StudyConfig(seed=8, n_sites=120,
                                                  shards=4))
        assert run_id(base) != run_id(StudyConfig(seed=7, n_sites=240,
                                                  shards=4))
        assert run_id(base) != run_id(
            StudyConfig(seed=7, n_sites=120, shards=4,
                        fault_profile="worker-crash")
        )

    def test_journal_dir_is_cache_scoped(self, tmp_path):
        assert journal_dir(tmp_path) == tmp_path / "runs"
