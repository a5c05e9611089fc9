"""End-to-end study benchmark.

Runs the full pipeline serially at a named scale and reports wall
clock, per-stage timings, whole-process peak RSS and the study digest.
The digest is the point: a benchmark run doubles as proof that whatever
was optimized since the last record still produces byte-identical
measurements.

The world cache (:func:`repro.runtime.ecosystem_for`) is cleared before
every run so repeats measure the full cold pipeline, not a warm
``generate-ecosystem`` stage.
"""

from __future__ import annotations

import resource
import time
from dataclasses import dataclass, field

from repro.analysis.digest import study_digest
from repro.analysis.study import Study, StudyConfig
from repro.runtime import StageTimings, clear_ecosystem_cache

__all__ = ["SCALES", "PipelineRun", "run_pipeline_bench"]

#: Named benchmark scales.  ``golden`` is the config the regression
#: snapshots pin; ``smoke`` is small enough for CI; ``stress`` is the
#: scale where optimization wins actually matter.  The ``-sharded``
#: twins run the same studies through the shard-and-fold path, and
#: ``golden-pool`` streams them through a process pool — their digests
#: must equal the unsharded entries at the same scale, so the benchmark
#: history doubles as a standing shard- and executor-invariance check.
SCALES: dict[str, StudyConfig] = {
    "smoke": StudyConfig(seed=7, n_sites=60, dns_study_days=0.25),
    "golden": StudyConfig(seed=7, n_sites=120, dns_study_days=0.25),
    "stress": StudyConfig(seed=7, n_sites=1200, dns_study_days=0.25),
    "smoke-sharded": StudyConfig(
        seed=7, n_sites=60, dns_study_days=0.25, shards=4
    ),
    "golden-sharded": StudyConfig(
        seed=7, n_sites=120, dns_study_days=0.25, shards=4
    ),
    "golden-pool": StudyConfig(
        seed=7, n_sites=120, dns_study_days=0.25, shards=4,
        executor="process:2",
    ),
}


@dataclass
class PipelineRun:
    """One measured end-to-end study run."""

    label: str
    seed: int
    n_sites: int
    wall_s: float
    digest: str
    peak_rss_kb: int
    repeats: int
    timings: StageTimings = field(default_factory=StageTimings)

    def to_dict(self) -> dict:
        return {
            "label": self.label,
            "seed": self.seed,
            "n_sites": self.n_sites,
            "wall_s": round(self.wall_s, 4),
            "digest": self.digest,
            "peak_rss_kb": self.peak_rss_kb,
            "repeats": self.repeats,
            "stages": [
                {
                    "name": stage.name,
                    "seconds": round(stage.seconds, 4),
                    "items": stage.items,
                }
                for stage in self.timings.stages
            ],
        }


def _peak_rss_kb() -> int:
    """Process peak RSS in KiB (Linux ru_maxrss unit).

    This is the process-wide high-water mark at the time of the call —
    it never decreases, so callers measuring several scales in one
    process must run them smallest-first (``repro bench`` does).
    """
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def run_pipeline_bench(scale: str = "golden", *, repeats: int = 3) -> PipelineRun:
    """Benchmark the serial study at ``scale``; best wall clock wins.

    Stage timings are kept from the best run; the digest must agree
    across repeats (it is deterministic — a mismatch means a real bug).
    """
    try:
        config = SCALES[scale]
    except KeyError:
        raise ValueError(
            f"unknown scale {scale!r}; pick one of {sorted(SCALES)}"
        ) from None
    best_wall = float("inf")
    best_timings = StageTimings()
    digest: str | None = None
    for _ in range(max(1, repeats)):
        clear_ecosystem_cache()
        timings = StageTimings()
        started = time.perf_counter()
        study = Study.run(config, timings=timings)
        wall = time.perf_counter() - started
        run_digest = study_digest(study)
        if digest is None:
            digest = run_digest
        elif digest != run_digest:
            raise RuntimeError(
                f"non-deterministic study at scale {scale!r}: "
                f"{digest} != {run_digest}"
            )
        if wall < best_wall:
            best_wall = wall
            best_timings = timings
    return PipelineRun(
        label=scale,
        seed=config.seed,
        n_sites=config.n_sites,
        wall_s=best_wall,
        digest=digest or "",
        peak_rss_kb=_peak_rss_kb(),
        repeats=max(1, repeats),
        timings=best_timings,
    )
