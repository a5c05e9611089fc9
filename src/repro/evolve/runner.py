"""Executing a longitudinal run: the same study at every epoch.

:func:`run_longitudinal` measures one scenario across simulated time:
epoch 0 is the pristine world (byte-identical to a study that never
heard of evolution — the pinned clean golden proves it), and each
subsequent epoch re-runs the *identical* study configuration against
the world advanced one more churn step.  Every epoch's full study is
immediately reduced to an :class:`~repro.analysis.longitudinal.EpochSnapshot`
so a long horizon stays memory-bounded, exactly like sweep cells.

One executor is shared across all epochs, and the content-addressed
cache works per epoch: ``epochs`` and ``evolution_policy`` sit on
:class:`~repro.web.ecosystem.EcosystemConfig`, which every crawl and
classification stage key hashes, so warm re-runs of a longitudinal
study load every epoch from disk.
"""

from __future__ import annotations

from dataclasses import replace
from typing import TYPE_CHECKING, Callable

from repro.evolve.policy import POLICIES

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.analysis.longitudinal import LongitudinalResult
    from repro.analysis.study import StudyConfig
    from repro.runtime import Executor
    from repro.store import StudyCache

__all__ = ["run_longitudinal"]


def run_longitudinal(
    config: "StudyConfig",
    *,
    policy: str,
    epochs: int,
    executor: "Executor | None" = None,
    cache: "StudyCache | None" = None,
    progress: Callable[[str], None] | None = None,
    resume: bool = False,
    strict: bool = False,
) -> "LongitudinalResult":
    """Run ``config`` at every epoch ``0..epochs`` under ``policy``.

    ``config``'s own ``epochs``/``evolution_policy`` fields are
    overridden — the scenario is exactly the epoch axis this function
    sweeps.  Returns the snapshot sequence for
    :func:`~repro.analysis.longitudinal.longitudinal_report`.

    ``resume``/``strict`` thread through to each epoch's
    :meth:`Study.run`; every epoch journals under its own run id
    (``epochs`` is a config field), so an interrupted horizon resumes
    mid-epoch and replays earlier epochs from cache.
    """
    # Imported here, not at module scope: the analysis layer imports
    # repro.evolve.policy for validation, so a module-level import back
    # into repro.analysis would be circular.
    from repro.analysis.longitudinal import (
        LongitudinalResult,
        longitudinal_report,
        snapshot_study,
    )
    from repro.analysis.study import Study

    POLICIES.lookup(policy)  # fail fast on unknown names
    if epochs < 0:
        raise ValueError(f"epochs must be >= 0, got {epochs}")
    base = replace(config, evolution_policy=policy, epochs=0)
    base.validate()
    owns_executor = executor is None
    executor = executor if executor is not None else base.make_executor()
    snapshots = []
    try:
        for epoch in range(epochs + 1):
            before = cache.total_stats() if cache is not None else None
            study = Study.run(
                replace(base, epochs=epoch), executor=executor, cache=cache,
                resume=resume, strict=strict,
            )
            snapshot = snapshot_study(epoch, study)
            snapshots.append(snapshot)
            if progress is not None:
                line = (
                    f"[epoch {epoch}/{epochs}] policy={policy}  "
                    f"digest={snapshot.digest[:12]}"
                )
                if before is not None:
                    # Per-shard cache keys make this the incremental-
                    # recompute ledger: hits are shards (and classified
                    # datasets) the evolution left untouched.
                    after = cache.total_stats()
                    line += (
                        f"  cache: {after.hits - before.hits} reused / "
                        f"{after.misses - before.misses} recomputed"
                    )
                progress(line)
    finally:
        if owns_executor:
            executor.close()
    return longitudinal_report(
        LongitudinalResult(
            policy=policy, config=base, snapshots=tuple(snapshots)
        )
    )
