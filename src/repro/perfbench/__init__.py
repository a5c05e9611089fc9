"""The performance measurement subsystem.

``repro bench`` profiles the two layers that matter to study
throughput and persists both as schema-versioned JSON at the repo root,
so every PR leaves a comparable performance record:

* :mod:`repro.perfbench.pipeline` — the end-to-end study at the golden
  config (seed=7, n_sites=120) and a stress config (n_sites=1200):
  per-stage wall clock, whole-run peak RSS, and the study digest that
  proves optimizations changed nothing.
* :mod:`repro.perfbench.micro` — microbenchmarks of each hot component
  (the perf estimator's HPACK encoding, hostname verification, the
  resolver TTL cache, pool coalescing, page loads, world generation).
* :mod:`repro.perfbench.report` — the ``BENCH_pipeline.json`` /
  ``BENCH_hotpath.json`` writers, the append-only wall-clock history
  ("trajectory"), and the comparator behind ``repro bench --check``
  that CI uses to fail on regressions.
"""

from repro.perfbench.hostinfo import host_metadata
from repro.perfbench.micro import MicroResult, run_microbenchmarks
from repro.perfbench.pipeline import PipelineRun, run_pipeline_bench
from repro.perfbench.report import (
    BENCH_SCHEMA,
    CheckFailure,
    check_pipeline,
    load_bench,
    write_hotpath_bench,
    write_pipeline_bench,
)

__all__ = [
    "BENCH_SCHEMA",
    "CheckFailure",
    "MicroResult",
    "PipelineRun",
    "check_pipeline",
    "host_metadata",
    "load_bench",
    "run_microbenchmarks",
    "run_pipeline_bench",
    "write_hotpath_bench",
    "write_pipeline_bench",
]
