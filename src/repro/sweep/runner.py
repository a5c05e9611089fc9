"""Executing a sweep: many study cells, one result bundle.

Each cell runs the full study pipeline (through the shared executor
fleet and, when given, the content-addressed cache) and is immediately
reduced to a compact :class:`CellResult` — digest, headline statistics,
per-dataset Table-1 numbers, stage timings — so a sweep's memory stays
bounded by its summaries, not by whole studies.

Cells that ablate away datasets the headline needs (e.g. an
``alexa_variants=fetch`` cell has no ``alexa-nofetch``) record
``headline=None`` and still contribute their per-dataset numbers.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable

from repro.analysis.digest import study_digest
from repro.analysis.headline import HeadlineStats, headline
from repro.analysis.study import Study
from repro.core.causes import Cause
from repro.runlog import RunCoverage
from repro.runtime import Executor, StageTimings, make_executor
from repro.store import StudyCache
from repro.sweep.spec import SweepCell, SweepSpec

__all__ = [
    "DatasetSummary",
    "CellResult",
    "SweepResult",
    "run_sweep",
    "summarize_cell",
    "summarize_dataset",
]


@dataclass(frozen=True)
class DatasetSummary:
    """One dataset's Table-1 numbers, detached from the study."""

    name: str
    h2_sites: int
    h2_connections: int
    redundant_sites: int
    redundant_connections: int
    redundant_site_share: float
    cause_sites: dict[str, int]
    cause_connections: dict[str, int]


@dataclass(frozen=True)
class CellResult:
    """Everything the robustness report needs from one cell."""

    cell: SweepCell
    digest: str
    headline: HeadlineStats | None
    datasets: dict[str, DatasetSummary]
    timings: StageTimings
    #: Shard coverage of the cell's run: ``None`` for cacheless sweeps,
    #: partial when the run layer quarantined shards (the robustness
    #: report flags such cells instead of treating them as complete).
    coverage: RunCoverage | None = None
    #: The churn the evolution engine applied in the cell's own epoch
    #: (``(kind, count)`` pairs; empty at epoch 0 and without a policy).
    churn: tuple[tuple[str, int], ...] = ()


@dataclass
class SweepResult:
    """All cell results of one sweep execution."""

    spec: SweepSpec
    cells: list[CellResult] = field(default_factory=list)
    cache: StudyCache | None = None

    def timings(self) -> StageTimings:
        """Stage timings aggregated over every cell."""
        return StageTimings.merged(result.timings for result in self.cells)

    def by_variant(self) -> list[tuple[str, list[CellResult]]]:
        """Cells grouped by variant label, preserving grid order."""
        groups: dict[str, list[CellResult]] = {}
        for result in self.cells:
            groups.setdefault(result.cell.variant_label(), []).append(result)
        return list(groups.items())


def summarize_dataset(name: str, dataset) -> DatasetSummary:
    """Reduce one classified dataset to its Table-1 numbers."""
    report = dataset.report
    return DatasetSummary(
        name=name,
        h2_sites=report.h2_sites,
        h2_connections=report.h2_connections,
        redundant_sites=report.redundant_sites,
        redundant_connections=report.redundant_connections,
        redundant_site_share=report.redundant_site_share(),
        cause_sites={
            cause.value: report.by_cause[cause].sites for cause in Cause
        },
        cause_connections={
            cause.value: report.by_cause[cause].connections for cause in Cause
        },
    )


def summarize_cell(
    cell: SweepCell, study: Study, timings: StageTimings
) -> CellResult:
    """Reduce one cell's study to its compact :class:`CellResult`.

    Shared by :func:`run_sweep` and the serve layer, which drives cells
    itself so it can stream per-shard progress.
    """
    try:
        stats = headline(study)
    except KeyError:
        # The cell's variant ablated a dataset the headline needs.
        stats = None
    return CellResult(
        cell=cell,
        digest=study_digest(study),
        headline=stats,
        datasets={
            name: summarize_dataset(name, dataset)
            for name, dataset in study.datasets.items()
        },
        timings=timings,
        coverage=study.coverage,
        churn=dict(study.index.evolution_ledger).get(
            cell.config.epochs, ()
        ),
    )


def run_sweep(
    spec: SweepSpec,
    *,
    cache: StudyCache | None = None,
    executor: Executor | None = None,
    progress: Callable[[str], None] | None = None,
    resume: bool = False,
    strict: bool = False,
) -> SweepResult:
    """Run every cell of ``spec`` and collect the summaries.

    One executor (the caller's, or one built from the base config) is
    shared across all cells; only when the grid sweeps the ``executor``
    or ``parallelism`` fields does each cell build its own, with the
    caller's watchdog window.  The cache, when given, is shared too —
    cells with common stage configurations (same crawl under different
    lifetime models, re-runs of a warm sweep, evolution epochs that
    left shards untouched) skip the corresponding work entirely, and
    each progress line reports the cell's reused / recomputed split.

    ``resume`` and ``strict`` thread through to every cell's
    :meth:`Study.run`: each cell journals under its own run id, so an
    interrupted sweep resumed with the same spec replays finished
    cells from cache and finished shards from their journals.
    """
    cells = spec.cells()
    axis_names = {name for name, _ in spec.axes}
    per_cell_executors = bool({"executor", "parallelism"} & axis_names)
    task_timeout = executor.task_timeout if executor is not None else None
    owns_shared = executor is None and not per_cell_executors
    shared = (
        None if per_cell_executors
        else executor if executor is not None
        else spec.base.make_executor()
    )
    result = SweepResult(spec=spec, cache=cache)
    try:
        for index, cell in enumerate(cells):
            timings = StageTimings()
            before = cache.total_stats() if cache is not None else None
            started = time.perf_counter()
            if per_cell_executors:
                with make_executor(
                    cell.config.executor, cell.config.parallelism,
                    task_timeout=task_timeout,
                ) as cell_executor:
                    study = Study.run(
                        cell.config, executor=cell_executor,
                        timings=timings, cache=cache,
                        resume=resume, strict=strict,
                    )
            else:
                study = Study.run(
                    cell.config, executor=shared, timings=timings, cache=cache,
                    resume=resume, strict=strict,
                )
            wall = time.perf_counter() - started
            summary = summarize_cell(cell, study, timings)
            result.cells.append(summary)
            if progress is not None:
                line = (
                    f"[{index + 1}/{len(cells)}] {cell.label()}  "
                    f"digest={summary.digest[:12]}  {wall:.2f} s"
                )
                if before is not None:
                    # Per-shard cache keys make this the incremental-
                    # recompute ledger: hits are shards (and classified
                    # datasets) the cell shares with earlier work.
                    after = cache.total_stats()
                    line += (
                        f"  cache: {after.hits - before.hits} reused / "
                        f"{after.misses - before.misses} recomputed"
                    )
                if summary.coverage is not None and not summary.coverage.complete:
                    line += "  PARTIAL"
                progress(line)
    finally:
        if owns_shared:
            shared.close()
    return result
