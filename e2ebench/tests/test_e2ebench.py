"""Tests of the end-to-end benchmark itself.

Smoke runs use tiny studies and a sub-second loop, and keep their
results and ledgers in a temporary state directory.
"""

from __future__ import annotations

import importlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

from common import (  # noqa: E402
    END_TO_END,
    EXACT_COUNTS,
    PER_LAYER,
    REFERENCE_KERNEL_S,
    WORKLOADS,
    kernel_seconds,
    ledger_check,
    scaled,
    tail,
    write_json_atomic,
)
from tracer import TARGETS, Tracer, load_spans  # noqa: E402

#: Tiny sizes: a few tenths of a second per study.
SMOKE_SITES = {"stress-serial": 30, "stress-sharded": 30, "serve-warm": 20}


def _run(workload: str, state: Path, *, seed: int = 7, trace: int = 0,
         cwd: Path = ROOT, script: Path = BENCH_DIR / "run.py"):
    completed = subprocess.run(
        [sys.executable, str(script), "--workload", workload,
         "--seed", str(seed), "--seconds", "0.2", "--trace", str(trace),
         "--sites", str(SMOKE_SITES[workload]), "--state-dir", str(state)],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    lines = completed.stdout.strip().splitlines()
    last = json.loads(lines[-1]) if lines and lines[-1].startswith("{") \
        else None
    return completed, last


def _record(state: Path, workload: str, seed: int, trace: int) -> dict:
    path = (state / "results" /
            f"{workload}-n{SMOKE_SITES[workload]}-seed{seed}-trace{trace}.json")
    return json.loads(path.read_text())


def _benchmark_json() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _targets() -> list[tuple[object, str]]:
    """``(owner, attribute)`` of every wrapped definition."""
    owners = []
    for _, module_name, attribute, _ in TARGETS:
        module = importlib.import_module(module_name)
        if "." in attribute:
            class_name, method = attribute.split(".")
            owners.append((getattr(module, class_name), method))
        else:
            owners.append((module, attribute))
    return owners


def test_tracer_restores_originals_and_keeps_the_digest():
    from repro.analysis import digest as digest_module
    from repro.analysis.study import Study, StudyConfig
    from repro.crawl import httparchive
    from repro.runtime import clear_ecosystem_cache

    config = StudyConfig(seed=7, n_sites=40, dns_study_days=0.25)
    clear_ecosystem_cache()
    plain = digest_module.study_digest(Study.run(config))
    before = {
        (id(owner), name): vars(owner)[name] for owner, name in _targets()
    }
    bound_write_har = httparchive.write_har

    tracer = Tracer()
    tracer.install(("protocol", "pipeline", "serve"))
    try:
        assert httparchive.write_har is not bound_write_har
        clear_ecosystem_cache()
        traced = tracer.operation(
            lambda: digest_module.study_digest(Study.run(config))
        )
    finally:
        tracer.restore()

    assert traced == plain
    counts = tracer.counts()
    assert counts["browser.visit.calls"] > 0
    assert counts["har.entries"] > 0
    assert counts["analysis.digest.calls"] == 1
    assert httparchive.write_har is bound_write_har
    for owner, name in _targets():
        assert vars(owner)[name] is before[(id(owner), name)], name


def test_self_time_excludes_children_and_spans_round_trip(tmp_path):
    tracer = Tracer()
    tracer.operation(
        lambda: tracer.operation(lambda: sum(range(200_000)), "inner"),
        "outer",
    )
    times = tracer.times()
    outer_self, outer_wall = times["outer"]
    inner_self, inner_wall = times["inner"]
    assert inner_self == pytest.approx(inner_wall)
    assert outer_self == pytest.approx(outer_wall - inner_wall)

    names, threads = load_spans(tracer.write_spans(tmp_path / "x.spans"))
    (spans,) = threads
    assert [names[i] for i in spans["name"]] == ["outer", "inner"]
    assert list(spans["parent"]) == [-1, 0]
    assert list(spans["op"]) == [0, 1]
    assert spans["end"][1] - spans["start"][1] == pytest.approx(inner_wall)


def test_benchmark_json_names_the_printed_metrics():
    spec = _benchmark_json()
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER
    assert spec["command"] == ["python3", "e2ebench/run.py"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_has_no_errors(workload, tmp_path):
    completed, last = _run(workload, tmp_path)
    assert completed.returncode == 0, completed.stderr
    assert last["correct"] is True
    assert last["failed"] == 0 and last["attempted"] >= 1
    assert list(last["metrics"]) == list(END_TO_END)
    for name, metric in last["metrics"].items():
        assert metric["unit"] == END_TO_END[name]
        assert metric["value"] > 0, name
        assert f"{name} " in completed.stdout
    assert _record(tmp_path, workload, 7, 0)["error_ratio"] == 0


def test_other_seed_changes_digest_not_metric_names(tmp_path):
    runs = {seed: _run("stress-serial", tmp_path, seed=seed)
            for seed in (7, 8)}
    for completed, last in runs.values():
        assert completed.returncode == 0, completed.stderr
    assert list(runs[7][1]["metrics"]) == list(runs[8][1]["metrics"])
    digest_7 = _record(tmp_path, "stress-serial", 7, 0)["detail"]["digests"]
    digest_8 = _record(tmp_path, "stress-serial", 8, 0)["detail"]["digests"]
    # Each run rotates three seeds: 7..9 and 8..10 share two.
    assert len(digest_7) == len(digest_8) == 3
    assert len(set(digest_7) & set(digest_8)) == 2


def test_traced_counts_repeat_exactly_and_mismatch_fails(tmp_path):
    first, last = _run("stress-serial", tmp_path, trace=1)
    assert first.returncode == 0, first.stderr
    assert list(last["metrics"]) == list(PER_LAYER)
    assert last["metrics"]["h2.perform_request.calls"]["value"] > 0
    counts = {
        name: _record(tmp_path, "stress-serial", 7, 1)["metrics"][name]
        for name in EXACT_COUNTS
    }
    second, _ = _run("stress-serial", tmp_path, trace=1)
    assert second.returncode == 0, second.stderr
    assert counts == {
        name: _record(tmp_path, "stress-serial", 7, 1)["metrics"][name]
        for name in EXACT_COUNTS
    }

    # A ledger that disagrees with the program fails the run.
    (ledger,) = (tmp_path / "ledger").glob("*/counts-stress-serial-*.json")
    recorded = json.loads(ledger.read_text())
    recorded["value"]["har.entries"] += 1
    ledger.write_text(json.dumps(recorded))
    third, last = _run("stress-serial", tmp_path, trace=1)
    assert third.returncode == 1
    assert last["correct"] is False
    assert "har.entries" in third.stderr


def test_stress_workloads_share_one_digest(tmp_path):
    completed, _ = _run("stress-serial", tmp_path)
    assert completed.returncode == 0, completed.stderr
    completed, last = _run("stress-sharded", tmp_path, trace=1)
    assert completed.returncode == 0, completed.stderr
    assert (_record(tmp_path, "stress-serial", 7, 0)["detail"]["digests"]
            == _record(tmp_path, "stress-sharded", 7, 1)["detail"]["digests"])
    # The sharded study writes every shard to its cache and journal.
    for name in ("store.put.calls", "store.put.bytes", "runlog.append.calls"):
        assert last["metrics"][name]["value"] > 0, name


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / BENCH_DIR.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    completed, last = _run(
        "stress-serial", tmp_path / "state", cwd=tmp_path,
        script=tmp_path / BENCH_DIR.name / "run.py",
    )
    assert completed.returncode not in (0, None)
    assert last is None


def test_writer_creates_directories_and_leaves_no_temp_file(tmp_path):
    target = tmp_path / "new" / "nested" / "result.json"
    write_json_atomic(target, {"a": 1})
    write_json_atomic(target, {"a": 2})
    assert json.loads(target.read_text()) == {"a": 2}
    assert [path.name for path in target.parent.iterdir()] == ["result.json"]


def test_ledger_records_then_holds_runs_to_the_record(tmp_path):
    assert ledger_check("v1/x", {"n": 1}, tmp_path) is None
    assert ledger_check("v1/x", {"n": 1}, tmp_path) is None
    assert "n" in ledger_check("v1/x", {"n": 2}, tmp_path)


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    value, percentile, beyond = tail([float(v) for v in range(1, 101)])
    assert (value, percentile, beyond) == (90.0, 90.0, 10)
    value, percentile, beyond = tail([float(v) for v in range(1, 22)])
    assert (value, percentile, beyond) == (11.0, 100.0 * 11 / 21, 10)


def test_tail_of_few_samples_is_the_interpolated_upper_quartile():
    assert tail([1.0, 2.0]) == (pytest.approx(1.75), 75.0, 1)
    value, percentile, beyond = tail([float(v) for v in range(1, 11)])
    assert (value, percentile, beyond) == (pytest.approx(7.75), 75.0, 3)


def test_times_scale_by_the_kernel_runs_around_them():
    ref = REFERENCE_KERNEL_S
    assert scaled([1.0, 2.0], [ref, ref, ref]) == [
        pytest.approx(1.0), pytest.approx(2.0),
    ]
    # A host at half speed throughout doubles every time.
    assert scaled([2.0], [2 * ref, 2 * ref]) == [pytest.approx(1.0)]
    # Each time is scaled by the four nearest kernel runs: here the
    # first sees (1, 1, 3) and the fourth (3, 3, 3).
    kernels = [ref, ref, 3 * ref, 3 * ref, 3 * ref]
    assert scaled([5.0, 1.0, 1.0, 3.0], kernels) == [
        pytest.approx(3.0), pytest.approx(0.5),
        pytest.approx(0.4), pytest.approx(1.0),
    ]
    with pytest.raises(ValueError):
        scaled([1.0], [ref])
    assert 0 < kernel_seconds() < 60
