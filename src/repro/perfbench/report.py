"""BENCH_*.json writers, the persisted trajectory, and the comparator.

Two files live at the repo root and are committed:

* ``BENCH_pipeline.json`` — end-to-end study runs (wall clock, stages,
  peak RSS, digest) plus an append-only ``history`` of one compact
  entry per recording session.  The oldest entry is the pre-optimization
  baseline; speedups are reported against it.
* ``BENCH_hotpath.json`` — the component microbenchmarks.

Both carry ``schema`` (bump on layout changes) and a ``host`` block;
wall-clock comparisons across different hosts are flagged, digest
comparisons are host-independent.

``check_pipeline`` implements ``repro bench --check``: re-measure a
scale and fail when the digest diverges or the wall clock regresses
beyond the tolerance (CI uses 0.25).
"""

from __future__ import annotations

import json
import os
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

from repro.perfbench.hostinfo import host_metadata
from repro.perfbench.micro import MicroResult
from repro.perfbench.pipeline import PipelineRun

__all__ = [
    "BENCH_SCHEMA",
    "PIPELINE_BENCH",
    "HOTPATH_BENCH",
    "CheckFailure",
    "CheckOutcome",
    "load_bench",
    "write_pipeline_bench",
    "write_hotpath_bench",
    "check_pipeline",
    "render_check_report",
]

BENCH_SCHEMA = 1
PIPELINE_BENCH = "BENCH_pipeline.json"
HOTPATH_BENCH = "BENCH_hotpath.json"


class CheckFailure(RuntimeError):
    """A benchmark check against the committed baseline failed."""


def load_bench(path: str | Path) -> dict:
    """Load one BENCH_*.json, validating the schema version."""
    data = json.loads(Path(path).read_text())
    schema = data.get("schema")
    if schema != BENCH_SCHEMA:
        raise CheckFailure(
            f"{path}: unsupported bench schema {schema!r} "
            f"(this build reads schema {BENCH_SCHEMA})"
        )
    return data


def _dump(path: Path, payload: dict) -> None:
    """Write ``payload`` atomically (temp file, fsync, rename), creating
    missing parent directories: a crash never truncates a trajectory."""
    path.parent.mkdir(parents=True, exist_ok=True)
    handle, temp_name = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    try:
        with os.fdopen(handle, "w") as stream:
            stream.write(json.dumps(payload, indent=1, sort_keys=False) + "\n")
            stream.flush()
            os.fsync(stream.fileno())
        os.replace(temp_name, path)
    except BaseException:
        os.unlink(temp_name)
        raise


def write_pipeline_bench(
    runs: list[PipelineRun],
    path: str | Path,
    *,
    label: str,
    note: str = "",
) -> dict:
    """Write ``BENCH_pipeline.json``, extending the persisted history.

    The existing file's ``history`` is carried over and one compact
    entry per scale in ``runs`` is appended under ``label``.  Speedups
    are computed against the oldest history entry that measured the
    same scale (the pre-optimization baseline).
    """
    path = Path(path)
    history: list[dict] = []
    previous_runs: list[dict] = []
    if path.exists():
        try:
            previous = load_bench(path)
            history = list(previous.get("history", []))
            previous_runs = list(previous.get("runs", []))
        except (json.JSONDecodeError, CheckFailure):
            history = []
    entry: dict = {
        "label": label,
        "recorded_unix": int(time.time()),
        "walls_s": {run.label: round(run.wall_s, 4) for run in runs},
        "digests": {run.label: run.digest for run in runs},
    }
    if note:
        entry["note"] = note
    # One history entry per label: re-running a session's bench updates
    # its record instead of flooding the trajectory.
    history = [past for past in history if past.get("label") != label]
    history.append(entry)

    speedups: dict[str, float] = {}
    for run in runs:
        for past in history:
            past_wall = past.get("walls_s", {}).get(run.label)
            if past_wall:
                speedups[run.label] = round(past_wall / run.wall_s, 3)
                break  # oldest matching entry is the baseline

    # Scales not measured this session keep their previous record, so a
    # partial re-record (e.g. `--scales golden`) never drops the smoke
    # run that CI's --check depends on.
    measured = {run.label for run in runs}
    all_runs = [run.to_dict() for run in runs] + [
        run for run in previous_runs if run.get("label") not in measured
    ]
    all_runs.sort(key=lambda run: run.get("n_sites", 0))

    payload = {
        "schema": BENCH_SCHEMA,
        "kind": "pipeline",
        "host": host_metadata(),
        "runs": all_runs,
        "speedup_vs_oldest": speedups,
        "history": history,
    }
    _dump(path, payload)
    return payload


def write_hotpath_bench(
    results: list[MicroResult], path: str | Path, *, label: str
) -> dict:
    """Write ``BENCH_hotpath.json`` (latest microbenchmark results)."""
    payload = {
        "schema": BENCH_SCHEMA,
        "kind": "hotpath",
        "label": label,
        "recorded_unix": int(time.time()),
        "host": host_metadata(),
        "benchmarks": [result.to_dict() for result in results],
    }
    _dump(Path(path), payload)
    return payload


@dataclass(frozen=True)
class CheckOutcome:
    """One comparison of a fresh run against the committed record."""

    scale: str
    measured_wall_s: float
    recorded_wall_s: float
    tolerance: float
    digest_ok: bool
    same_host: bool

    @property
    def regression(self) -> float:
        """Relative slowdown vs. the record (0.10 == 10% slower)."""
        if self.recorded_wall_s <= 0:
            return 0.0
        return self.measured_wall_s / self.recorded_wall_s - 1.0

    @property
    def wall_ok(self) -> bool:
        return self.regression <= self.tolerance

    @property
    def passed(self) -> bool:
        return self.digest_ok and self.wall_ok


def check_pipeline(
    fresh: PipelineRun,
    committed: dict,
    *,
    tolerance: float = 0.25,
) -> CheckOutcome:
    """Compare a fresh run to the committed ``BENCH_pipeline.json``.

    The digest must match exactly (host-independent determinism); the
    wall clock may regress at most ``tolerance`` relative to the
    recorded run of the same scale.
    """
    recorded = next(
        (run for run in committed.get("runs", [])
         if run.get("label") == fresh.label),
        None,
    )
    if recorded is None:
        raise CheckFailure(
            f"committed benchmark has no run at scale {fresh.label!r}; "
            f"regenerate it with: repro bench"
        )
    recorded_host = committed.get("host", {})
    return CheckOutcome(
        scale=fresh.label,
        measured_wall_s=fresh.wall_s,
        recorded_wall_s=float(recorded.get("wall_s", 0.0)),
        tolerance=tolerance,
        digest_ok=fresh.digest == recorded.get("digest"),
        same_host=recorded_host.get("platform") == host_metadata()["platform"],
    )


def render_check_report(outcome: CheckOutcome) -> str:
    """Human-readable verdict for the CLI."""
    lines = [
        f"bench check @ {outcome.scale}: "
        f"{'PASS' if outcome.passed else 'FAIL'}",
        f"  digest      {'identical' if outcome.digest_ok else 'MISMATCH'}",
        f"  wall clock  {outcome.measured_wall_s:.2f} s vs recorded "
        f"{outcome.recorded_wall_s:.2f} s "
        f"({outcome.regression:+.1%}, tolerance {outcome.tolerance:.0%})",
    ]
    if not outcome.same_host:
        lines.append(
            "  note        recorded on a different host platform; "
            "wall-clock comparison is indicative only"
        )
    return "\n".join(lines)
