"""Crash-safe runs: durable journal, shard retry, poison quarantine.

The run layer makes long studies survivable:

* :mod:`repro.runlog.journal` — an append-only, fsync'd JSONL journal
  per run whose loader tolerates torn tails.  Every record is flushed;
  a synced record makes every earlier one durable, and ``shard-skip``
  (a cached shard) is the one kind left for the next sync or close;
* :mod:`repro.runlog.retry` — transient/fatal failure classification
  and ``recover_chunk``, the single-item retry of a failed chunk;
* :mod:`repro.runlog.context` — the :class:`RunContext` the pipeline
  threads per shard, with poison quarantine and coverage accounting
  (a cacheless run gets ``RunContext.null()``, which journals nothing
  and fails fast);
* :mod:`repro.runlog.inspect` — journal listing for ``repro runs``.

With zero failures the layer is provably inert: the happy path hands
each shard's streamed results straight through, and the coverage
block feeds nothing into the digest, so the pinned seed goldens
double as the inertness differential.
"""

from repro.runlog.context import RunContext, RunCoverage
from repro.runlog.errors import (
    JournalSchemaError,
    PoisonShardError,
    RunJournalError,
    ShardRetryError,
    WorkerCrashError,
)
from repro.runlog.inspect import (
    RunStatus,
    list_runs,
    render_run_detail,
    render_runs,
)
from repro.runlog.journal import (
    RUNLOG_SCHEMA,
    ReplayState,
    RunJournal,
    journal_dir,
    load_records,
    run_id,
)
from repro.runlog.retry import classify_failure

__all__ = [
    "RUNLOG_SCHEMA",
    "JournalSchemaError",
    "PoisonShardError",
    "ReplayState",
    "RunContext",
    "RunCoverage",
    "RunJournal",
    "RunJournalError",
    "RunStatus",
    "ShardRetryError",
    "WorkerCrashError",
    "classify_failure",
    "journal_dir",
    "list_runs",
    "load_records",
    "render_run_detail",
    "render_runs",
    "run_id",
]
