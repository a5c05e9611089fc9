"""The ISSUE's kill-and-resume differential.

A real ``repro study`` subprocess is interrupted mid-run — one pool
worker SIGKILLed, then SIGINT to the driver — and the run is resumed
in-process with ``resume=True``.  The resumed study must be
digest-identical to an uninterrupted run of the same config, and the
journal must show the finished shards being skipped, not redone.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.analysis.digest import study_digest
from repro.analysis.study import Study, StudyConfig
from repro.runlog import load_records, run_id
from repro.store import StudyCache

# The exact config the CLI below builds (executor/parallelism are
# normalised away by run_id, so the serial in-process resume continues
# the process-pool run's journal).
CONFIG = StudyConfig(seed=7, n_sites=120, shards=8)
CLI = [
    sys.executable, "-m", "repro", "study",
    "--sites", "120", "--shards", "8", "--seed", "7",
    "--executor", "process:2", "--headline",
]

REPO_ROOT = Path(__file__).resolve().parent.parent.parent


def _env() -> dict[str, str]:
    env = dict(os.environ)
    src = str(REPO_ROOT / "src")
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = f"{src}:{existing}" if existing else src
    return env


def _journal_path(cache_dir: Path) -> Path:
    return cache_dir / "runs" / f"{run_id(CONFIG)}.jsonl"


def _events(cache_dir: Path) -> list[str]:
    return [r["event"] for r in load_records(_journal_path(cache_dir))]


def _worker_pids(pid: int) -> list[int]:
    try:
        raw = Path(f"/proc/{pid}/task/{pid}/children").read_text()
    except OSError:
        return []
    return [int(child) for child in raw.split()]


def _interrupt_a_real_run(cache_dir: Path) -> "tuple[int, str] | None":
    """Start the CLI study, SIGKILL a worker once shards are landing,
    SIGINT the driver.  Returns (returncode, stderr), or None if the
    run won the race and completed before the interrupt landed."""
    proc = subprocess.Popen(
        CLI + ["--cache-dir", str(cache_dir)],
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
        env=_env(), cwd=REPO_ROOT, text=True,
    )
    try:
        deadline = time.monotonic() + 90.0
        while time.monotonic() < deadline:
            if proc.poll() is not None:
                proc.communicate()
                return None  # completed before we could interrupt
            if _events(cache_dir).count("shard-finish") >= 2:
                break
            time.sleep(0.02)
        else:
            pytest.fail("study subprocess produced no shard-finish "
                        "records within 90s")
        workers = _worker_pids(proc.pid)
        if workers:
            os.kill(workers[-1], signal.SIGKILL)
            time.sleep(0.2)
        if proc.poll() is not None:
            proc.communicate()
            return None
        proc.send_signal(signal.SIGINT)
        _, stderr = proc.communicate(timeout=90)
        if proc.returncode == 0:
            return None  # SIGINT landed after the run finished
        return proc.returncode, stderr
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()


@pytest.mark.slow
class TestKillAndResume:
    def test_interrupted_run_resumes_to_an_identical_digest(
        self, tmp_path_factory
    ):
        reference_cache = StudyCache(tmp_path_factory.mktemp("reference"))
        reference = study_digest(Study.run(CONFIG, cache=reference_cache))

        for _ in range(3):
            cache_dir = tmp_path_factory.mktemp("interrupted")
            outcome = _interrupt_a_real_run(cache_dir)
            if outcome is not None:
                break
        else:
            pytest.skip("study completed before the interrupt could "
                        "land on three consecutive tries")

        returncode, stderr = outcome
        assert returncode == 130
        assert "--resume" in stderr
        assert "Traceback" not in stderr

        events = _events(cache_dir)
        assert "run-finish" not in events  # genuinely interrupted
        finished_before = events.count("shard-finish")
        assert finished_before >= 2

        resumed = Study.run(
            CONFIG, cache=StudyCache(cache_dir), resume=True
        )
        assert study_digest(resumed) == reference
        assert resumed.coverage is not None and resumed.coverage.complete

        records = load_records(_journal_path(cache_dir))
        events = [r["event"] for r in records]
        assert events[-1] == "run-finish"
        journal_skips = [
            r for r in records
            if r["event"] == "shard-skip" and r.get("reason") == "journal"
        ]
        # Every shard the interrupted run finished was skipped on
        # resume via its journalled cache key, not recomputed.
        assert len(journal_skips) >= finished_before


# The streamed pool path: crawl shards run as one stream on a 2-process
# pool and each is classified in the driver as it lands.
STREAM_CONFIG = StudyConfig(seed=7, n_sites=120, shards=4)
STREAM_CLI = [
    sys.executable, "-m", "repro", "study",
    "--sites", "120", "--shards", "4", "--seed", "7",
    "--executor", "process:2", "--headline",
]
#: Crawl shards of STREAM_CONFIG: 3 crawls of 4 shards.
STREAM_CRAWL_SHARDS = 12


def _finishes(path: Path) -> tuple[int, int]:
    """``(crawl, classify)`` shard-finish records journalled so far."""
    finishes = [
        record["stage"] for record in load_records(path)
        if record["event"] == "shard-finish"
    ]
    classify = sum(stage.startswith("classify-") for stage in finishes)
    return len(finishes) - classify, classify


def _kill_after_first_classification(cache_dir: Path) -> bool:
    """Start the streamed study and SIGKILL it, pool included, once a
    classify shard has finished.  True if crawl shards were still in
    flight when it died."""
    path = cache_dir / "runs" / f"{run_id(STREAM_CONFIG)}.jsonl"
    proc = subprocess.Popen(
        STREAM_CLI + ["--cache-dir", str(cache_dir)],
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        env=_env(), cwd=REPO_ROOT, start_new_session=True,
    )
    try:
        deadline = time.monotonic() + 90.0
        while time.monotonic() < deadline:
            if proc.poll() is not None:
                return False  # completed before we could kill it
            if path.exists() and _finishes(path)[1] >= 1:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
                break
            time.sleep(0.005)
        else:
            pytest.fail("study subprocess finished no classify shard "
                        "within 90s")
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    crawled, classified = _finishes(path)
    return classified >= 1 and crawled < STREAM_CRAWL_SHARDS


@pytest.mark.slow
class TestKillMidStreamAndResume:
    def test_killed_stream_resumes_to_an_identical_digest(
        self, tmp_path_factory
    ):
        reference = study_digest(Study.run(
            STREAM_CONFIG, cache=StudyCache(tmp_path_factory.mktemp("ref"))
        ))
        for _ in range(3):
            cache_dir = tmp_path_factory.mktemp("killed")
            if _kill_after_first_classification(cache_dir):
                break
        else:
            pytest.skip("the crawls finished before the kill could land "
                        "on three consecutive tries")

        path = cache_dir / "runs" / f"{run_id(STREAM_CONFIG)}.jsonl"
        assert "run-finish" not in [r["event"] for r in load_records(path)]
        finished_before = sum(_finishes(path))

        resumed = Study.run(
            STREAM_CONFIG, cache=StudyCache(cache_dir), resume=True
        )
        assert study_digest(resumed) == reference
        assert resumed.coverage is not None and resumed.coverage.complete
        records = load_records(path)
        assert records[-1]["event"] == "run-finish"
        journal_skips = [
            r for r in records
            if r["event"] == "shard-skip" and r.get("reason") == "journal"
        ]
        assert len(journal_skips) >= finished_before
