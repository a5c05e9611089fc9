"""The per-run orchestration object threaded through the pipeline.

A :class:`RunContext` owns one run's journal, retry budget and
quarantine bookkeeping.  Its one per-shard caller is the shard
scheduler, :func:`repro.crawl.shards.run_stages`, which runs the three
crawls (journal stages ``har-crawl``, ``alexa-fetch``,
``alexa-nofetch``) as one stream and each dataset's classification
(``classify-<dataset>``) inline as its crawl shards land::

    for every shard of the plan, in plan order:
        if the cache has it:  runlog.note_cached(stage, shard)
        else:                 runlog.start_shard(stage, shard); submit it
    for every submitted shard, as its batch lands:
        results = runlog.settle_shard(stage, shard, landed, ...)
        if results is not None:      # None: poison quarantine
            ... build, cache.put, runlog.maybe_rot(stage, shard, path)
            runlog.finish_shard(stage, shard)

So a run journals its cached shards' skips first, then one
``shard-start`` per submitted shard, then the finishes in completion
order.  Cacheless runs get :meth:`RunContext.null`: a strict context
over a journal that keeps nothing, so ``settle_shard`` raises a failed
batch's own exception after its one attempt.

The study driver closes the loop: it skips classification shards of
quarantined crawl shards (so no empty dataset is ever cached under a
full shard's key), folds :meth:`RunContext.coverage` into the study's
digest and reports, and appends the terminal ``run-finish`` record.
A journal whose last record is not ``run-finish`` is, by definition,
resumable.

The context is provably inert when nothing fails: ``settle_shard``
hands a landed batch's results straight back, retrying through
:func:`repro.runlog.retry.recover_chunk` only after a chunk failed,
coverage with zero quarantined shards feeds no extra bytes to the
digest, and the seed goldens pin all of it.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Sequence, TypeVar

from repro.runlog.errors import PoisonShardError
from repro.runlog.journal import ReplayState, RunJournal, journal_dir, run_id
from repro.runlog.retry import recover_chunk

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.crawl.shards import CrawlShard
    from repro.runtime.executor import Landed
    from repro.store import StudyCache

T = TypeVar("T")
R = TypeVar("R")

__all__ = ["RunCoverage", "RunContext"]


@dataclass(frozen=True)
class RunCoverage:
    """Honest accounting of how much of a run actually ran.

    ``excluded_domains`` lists every domain of every quarantined shard,
    sorted — the sites whose measurements the fold proceeded without.
    """

    shards_total: int = 0
    shards_ok: int = 0
    shards_quarantined: int = 0
    excluded_domains: tuple[str, ...] = ()

    @property
    def complete(self) -> bool:
        return self.shards_quarantined == 0

    def describe(self) -> str:
        """One line for progress output and reports."""
        if self.complete:
            return f"complete ({self.shards_ok}/{self.shards_total} shards)"
        return (
            f"PARTIAL ({self.shards_ok}/{self.shards_total} shards ok, "
            f"{self.shards_quarantined} quarantined, "
            f"{len(self.excluded_domains)} domain(s) excluded)"
        )


class RunContext:
    """Journal + retry + quarantine state for one study run."""

    def __init__(
        self,
        journal: RunJournal,
        *,
        run: str,
        strict: bool = False,
        seed: int = 0,
        fault_profile: str = "none",
    ) -> None:
        self.journal = journal
        self.run = run
        self.strict = strict
        #: Tries per shard item, the whole-chunk one included: strict
        #: runs stop at the first failure, others retry twice.
        self.max_attempts = 1 if strict else 3
        self.seed = seed
        self.fault_profile = fault_profile
        self.replay = journal.replay
        # thread-safe: one RunContext per study run, driven only from
        # the study thread (workers never see it).
        self._quarantined: dict[str, tuple[str, ...]] = {}
        self._ok: set[str] = set()

    # ------------------------------------------------------------------
    @staticmethod
    def null() -> "RunContext":
        """A journal-less, fail-fast context for one cacheless run.

        Fresh per call: a context keeps per-run state, and the serve
        layer runs studies on many threads at once.
        """
        return RunContext(_NoJournal(), run="", strict=True)

    def detached(self) -> "RunContext":
        """This run's retry budget and fault hooks, journalling nothing.

        For shard work after the run's journal has closed: a lazily
        loaded crawl shard that has to be recrawled retries (and
        quarantines) as the run would have.
        """
        return RunContext(
            _NoJournal(), run=self.run, strict=self.strict,
            seed=self.seed, fault_profile=self.fault_profile,
        )

    @classmethod
    def for_study(
        cls,
        config,
        cache: "StudyCache",
        *,
        resume: bool = False,
        strict: bool = False,
        observer: Callable[[dict], None] | None = None,
    ) -> "RunContext":
        """The context of one :class:`StudyConfig` against one cache.

        ``resume=True`` reopens the config's existing journal (falling
        back to a fresh one when none exists); otherwise a fresh
        journal replaces whatever was there.  ``observer`` is installed
        on the journal and sees every record after its durable append —
        the serve layer's per-shard progress feed.
        """
        run = run_id(config)
        path = journal_dir(cache.directory) / f"{run}.jsonl"
        if resume and path.exists():
            journal = RunJournal.resume(path, run=run)
        else:
            journal = RunJournal.fresh(path, run=run, meta={
                "seed": config.seed,
                "n_sites": config.n_sites,
                "shards": config.shards,
                "fault_profile": config.fault_profile,
                "epochs": config.epochs,
                "evolution_policy": config.evolution_policy,
            })
        if observer is not None:
            journal.observer = observer
        return cls(
            journal, run=run, strict=strict,
            seed=config.seed, fault_profile=config.fault_profile,
        )

    # ------------------------------------------------------------------
    @staticmethod
    def _token(stage: str, shard: "CrawlShard") -> str:
        """The journal identity of one shard of one stage.

        Cached runs use the shard's cache key (which already hashes the
        stage configuration); uncached runs fall back to the stage name
        plus the bucket index, which is equally stable across runs.
        """
        return shard.key if shard.key is not None else (
            f"{stage}#{shard.index}"
        )

    def start_shard(self, stage: str, shard: "CrawlShard") -> None:
        """Record a shard submitted for execution."""
        self.journal.append({
            "event": "shard-start", "stage": stage,
            "key": self._token(stage, shard),
            "artifact": shard.key, "n_domains": len(shard.domains),
        })

    def settle_shard(
        self,
        stage: str,
        shard: "CrawlShard",
        landed: "Landed",
        fn: Callable[[T], R],
        tasks: Sequence[T],
        *,
        executor,
        reattempt: Callable[[T, int], T] | None = None,
    ) -> list[R] | None:
        """A started shard's results from its landed batch; ``None`` =
        quarantined.

        ``landed`` is the shard's batch as the executor's stream
        yielded it: its results, or the error that failed its chunk
        attempt, after which :func:`~repro.runlog.retry.recover_chunk`
        retries item by item.  Fatal (programming) errors and
        strict-mode failures propagate after a ``shard-failed``
        record; poison quarantine appends a ``shard-quarantined``
        record and returns ``None`` so the caller folds without the
        shard.
        """
        if landed.error is None:
            return landed.results
        token = self._token(stage, shard)

        def on_event(kind: str, detail: dict) -> None:
            self.journal.append({"event": kind, "key": token, **detail})

        try:
            return recover_chunk(
                executor, fn, tasks, landed, max_attempts=self.max_attempts,
                stage=stage, domains=shard.domains, reattempt=reattempt,
                on_event=on_event,
            )
        except PoisonShardError as error:
            self.journal.append({
                "event": "shard-quarantined", "stage": stage, "key": token,
                "domains": list(shard.domains), "attempts": error.attempts,
            })
            self._quarantined[token] = shard.domains
            if self.strict:
                raise
            return None
        except Exception as error:
            self.journal.append({
                "event": "shard-failed", "stage": stage, "key": token,
                "error": type(error).__name__, "message": str(error),
            })
            raise

    def finish_shard(self, stage: str, shard: "CrawlShard") -> None:
        """Record a shard done — call *after* its artefact is cached."""
        token = self._token(stage, shard)
        self.journal.append({
            "event": "shard-finish", "stage": stage, "key": token,
            "artifact": shard.key,
        })
        self._ok.add(token)
        self._quarantined.pop(token, None)

    def note_cached(self, stage: str, shard: "CrawlShard") -> None:
        """Record a shard skipped because its artefact already exists.

        The skip reason distinguishes "this run's journal already saw
        it finish" (a resume skipping completed work) from "the
        content-addressed cache had it" (any warm run).  The record is
        flushed but not fsynced: the next synced record or the
        journal's close makes it durable, and losing it to power loss
        costs a resume one more cache probe with the same answer.
        """
        token = self._token(stage, shard)
        reason = "journal" if token in self.replay.finished else "cache"
        self.journal.append({
            "event": "shard-skip", "stage": stage, "key": token,
            "artifact": shard.key, "reason": reason,
        }, sync=False)
        self._ok.add(token)

    # ------------------------------------------------------------------
    def maybe_rot(self, stage: str, shard: "CrawlShard",
                  path) -> bool:
        """The ``cache-rot`` fault hook: truncate a just-written artefact.

        Fires deterministically per ``(profile, seed, stage, shard)``;
        the damaged pickle is exactly what ``StudyCache.get`` already
        evicts-and-recomputes, so a rotted shard costs one recompute,
        never a crash — the warm-rerun differential pins that.
        """
        if not shard.domains:
            return False
        from repro.faults.plan import FaultKind, FaultPlan

        plan = FaultPlan.compile(
            self.fault_profile, seed=self.seed,
            run=f"cache-rot:{stage}", domain=shard.domains[0],
        )
        if plan is None or not plan.fires(FaultKind.TASK_CACHE_ROT):
            return False
        keep = max(0.0, min(1.0, plan.param(FaultKind.TASK_CACHE_ROT, 0.5)))
        path = Path(path)
        size = path.stat().st_size
        with path.open("r+b") as handle:
            handle.truncate(int(size * keep))
        self.journal.append({
            "event": "cache-rot", "stage": stage,
            "key": self._token(stage, shard), "artifact": shard.key,
        })
        return True

    # ------------------------------------------------------------------
    def coverage(self) -> RunCoverage:
        """What ran, what was quarantined, which domains are missing."""
        excluded = sorted(
            domain
            for domains in self._quarantined.values()
            for domain in domains
        )
        return RunCoverage(
            shards_total=len(self._ok) + len(self._quarantined),
            shards_ok=len(self._ok),
            shards_quarantined=len(self._quarantined),
            excluded_domains=tuple(excluded),
        )

    def finish(self) -> RunCoverage:
        """Append the terminal ``run-finish`` record."""
        coverage = self.coverage()
        self.journal.append({
            "event": "run-finish",
            "status": "complete" if coverage.complete else "partial",
            "shards_ok": coverage.shards_ok,
            "shards_quarantined": coverage.shards_quarantined,
        })
        return coverage

    def close(self) -> None:
        """Flush and release the journal (idempotent)."""
        self.journal.close()


class _NoJournal:
    """The journal of a cacheless or detached context: it keeps no record."""

    def __init__(self) -> None:
        self.replay = ReplayState()

    def append(self, record: dict, *, sync: bool = True) -> dict:
        return record

    def close(self) -> None:
        pass
