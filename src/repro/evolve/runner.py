"""Executing a longitudinal run: the same study at every epoch.

:func:`run_longitudinal` measures one scenario across simulated time:
epoch 0 is the pristine world (byte-identical to a study that never
heard of evolution — the pinned clean golden proves it), and each
subsequent epoch re-runs the *identical* study configuration against
the world advanced one more churn step.  It is a sweep over the
``epochs`` axis: :func:`~repro.sweep.run_sweep` shares one executor
and the cache across epochs and reduces every epoch's study to a
:class:`~repro.sweep.runner.CellResult`, so a long horizon stays
memory-bounded.

``epochs`` and ``evolution_policy`` sit on
:class:`~repro.web.ecosystem.EcosystemConfig`, which every crawl and
classification stage key hashes, so warm re-runs of a longitudinal
study load every epoch from disk.
"""

from __future__ import annotations

from dataclasses import replace
from typing import TYPE_CHECKING, Callable

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
    sweeps.  Returns the epoch sequence for
    :func:`~repro.analysis.longitudinal.longitudinal_report`.

    ``resume``/``strict`` thread through to each epoch's
    :meth:`Study.run`; every epoch journals under its own run id
    (``epochs`` is a config field), so an interrupted horizon resumes
    mid-epoch and replays earlier epochs from cache.
    """
    # Imported here, not at module scope: the analysis layer imports
    # repro.evolve.policy for validation, so a module-level import back
    # into repro.analysis (or the sweep layer built on it) would be
    # circular.
    from repro.analysis.longitudinal import (
        LongitudinalResult,
        longitudinal_report,
    )
    from repro.sweep import SweepSpec, run_sweep

    # Rejects an unknown policy and a negative horizon before any work.
    replace(config, evolution_policy=policy, epochs=epochs).validate()
    spec = SweepSpec(
        base=replace(config, evolution_policy=policy, epochs=0),
        seeds=(config.seed,),
        axes=(("epochs", tuple(range(epochs + 1))),),
    )
    result = run_sweep(
        spec, cache=cache, executor=executor, progress=progress,
        resume=resume, strict=strict,
    )
    return longitudinal_report(
        LongitudinalResult(
            policy=policy, config=spec.base, cells=tuple(result.cells)
        )
    )
