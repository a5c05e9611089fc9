"""The collector pause and the acyclicity that makes it safe.

:func:`repro.runtime.gcpause.collector_paused` keeps CPython's cyclic
collector off over studies and served requests.  That is only free if
the pipeline never builds a reference cycle: under the pause a cycle
would survive until the next collection instead of being found by
one.  ``TestPipelineIsAcyclic`` runs studies and served requests under
``gc.DEBUG_SAVEALL`` and asserts that no ``repro`` object is ever part
of (or only reachable from) collected garbage.
"""

from __future__ import annotations

import gc
import json
import os
import sys
import threading
import urllib.request
from dataclasses import replace

import pytest

from repro.analysis.study import Study, StudyConfig
from repro.runtime import StageTimings, clear_ecosystem_cache
from repro.runtime.gcpause import collector_paused
from repro.runtime.profile import StageTiming
from repro.serve import StudyService, make_server
from repro.store import StudyCache


@pytest.fixture(autouse=True)
def _collector_restored():
    """Every test starts with the collector on and leaves it as found."""
    was_enabled = gc.isenabled()
    gc.enable()
    yield
    gc.set_debug(0)
    if not was_enabled:
        gc.disable()


def _repro_garbage(action) -> list[str]:
    """Types of ``repro`` objects a full collection after ``action``
    finds unreachable (``action`` must drop what it built)."""
    gc.collect()
    del gc.garbage[:]
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        action()
        clear_ecosystem_cache()
        gc.collect()
        found = sorted({
            f"{type(obj).__module__}.{type(obj).__qualname__}"
            for obj in gc.garbage
            if type(obj).__module__.split(".")[0] == "repro"
        })
    finally:
        gc.set_debug(0)
        del gc.garbage[:]
    return found


BASE = StudyConfig(seed=7, n_sites=60, dns_study_days=0.25)


class TestPipelineIsAcyclic:
    def test_cold_then_warm_cached_sharded_serial(self, tmp_path):
        cache = StudyCache(str(tmp_path / "cache"))
        config = replace(BASE, shards=4)
        for _ in ("cold", "warm"):
            assert _repro_garbage(lambda: Study.run(config, cache=cache)) == []

    @pytest.mark.parametrize("overrides", [
        {"executor": "thread", "parallelism": 2, "shards": 3},
        {"executor": "process", "parallelism": 2},
        {"fault_profile": "chaos"},
        {"h3_profile": "broad"},
        {"evolution_policy": "mixed", "epochs": 2},
    ], ids=["thread-shards3", "process", "chaos", "h3-broad", "mixed-evolve"])
    def test_study(self, overrides):
        config = replace(BASE, **overrides)
        assert _repro_garbage(lambda: Study.run(config)) == []

    def test_served_json_and_sse_requests(self, tmp_path):
        service = StudyService(
            str(tmp_path / "cache"), executor="thread", jobs=2
        )
        server = make_server(service, port=0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        host, port = server.server_address[:2]
        body = json.dumps(
            {"schema": 1, "seed": 7, "n_sites": 60, "shards": 2,
             "dns_study_days": 0.25}
        ).encode()

        def request(accept: str) -> None:
            post = urllib.request.Request(
                f"http://{host}:{port}/v1/study", data=body,
                headers={"Content-Type": "application/json",
                         "Accept": accept},
            )
            with urllib.request.urlopen(post, timeout=120) as resp:
                assert resp.status == 200
                resp.read()

        try:
            for accept in ("application/json", "text/event-stream"):
                assert _repro_garbage(lambda: request(accept)) == []
        finally:
            server.shutdown()
            server.server_close()
            service.close()


class TestCollectorPaused:
    def test_disables_and_restores(self):
        with collector_paused():
            assert not gc.isenabled()
            with collector_paused():
                assert not gc.isenabled()
            assert not gc.isenabled()
        assert gc.isenabled()

    def test_overlapping_threads_keep_it_off_until_the_last_exits(self):
        first_in, second_in = threading.Event(), threading.Event()
        first_out, release_second = threading.Event(), threading.Event()

        def first() -> None:
            with collector_paused():
                first_in.set()
                second_in.wait(10)
            first_out.set()

        def second() -> None:
            first_in.wait(10)
            with collector_paused():
                second_in.set()
                release_second.wait(10)

        threads = [threading.Thread(target=first),
                   threading.Thread(target=second)]
        for worker in threads:
            worker.start()
        assert first_out.wait(10)
        assert not gc.isenabled()
        release_second.set()
        for worker in threads:
            worker.join(10)
            assert not worker.is_alive()
        assert gc.isenabled()

    def test_many_threads_racing_leave_the_collector_on(self):
        # More threads than cores and a tiny switch interval: a lost
        # update to the depth counter would leave the collector off.
        start = threading.Barrier(8)
        enabled_inside = []

        def churn() -> None:
            start.wait(10)
            for _ in range(300):
                with collector_paused():
                    if gc.isenabled():
                        enabled_inside.append(True)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=churn) for _ in range(8)]
            for worker in threads:
                worker.start()
            for worker in threads:
                worker.join(30)
                assert not worker.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert enabled_inside == []
        assert gc.isenabled()

    def test_already_disabled_collector_stays_disabled(self):
        gc.disable()
        with collector_paused():
            assert not gc.isenabled()
        assert not gc.isenabled()

    def test_exception_restores_the_collector(self):
        with pytest.raises(RuntimeError):
            with collector_paused():
                raise RuntimeError("boom")
        assert gc.isenabled()

    def test_forked_child_gets_its_collector_back(self):
        with collector_paused():
            pid = os.fork()
            if pid == 0:
                # Exit code bits: 1 = collector off after fork, 2 = a
                # fresh pause in the child did not restore it.
                code = 0 if gc.isenabled() else 1
                with collector_paused():
                    pass
                code |= 0 if gc.isenabled() else 2
                os._exit(code)
            _, status = os.waitpid(pid, 0)
            assert not gc.isenabled()
        assert os.waitstatus_to_exitcode(status) == 0
        assert gc.isenabled()

    @staticmethod
    def _child_freeze_count() -> int:
        """``gc.get_freeze_count()`` in a child forked right now."""
        pid = os.fork()
        if pid == 0:
            os._exit(min(gc.get_freeze_count(), 1))
        _, status = os.waitpid(pid, 0)
        return os.waitstatus_to_exitcode(status)

    def test_fork_inside_a_pause_freezes_the_inherited_heap(self):
        with collector_paused():
            assert self._child_freeze_count() > 0
        assert gc.get_freeze_count() == 0

    def test_fork_outside_a_pause_freezes_nothing(self):
        assert gc.get_freeze_count() == 0
        assert self._child_freeze_count() == 0


class TestStageTimingsCountPasses:
    def test_study_stages_run_without_collector_passes(self):
        timings = StageTimings()
        Study.run(StudyConfig(seed=7, n_sites=60), timings=timings)
        assert timings.stages
        assert {stage.name: stage.gc_passes for stage in timings.stages} == {
            stage.name: 0 for stage in timings.stages
        }

    def test_stage_counts_explicit_collections(self):
        timings = StageTimings()
        with timings.stage("collect"):
            gc.collect()
            gc.collect()
        assert timings.stages[0].gc_passes == 2

    def test_merged_sums_and_render_shows_only_nonzero(self):
        first, second = StageTimings(), StageTimings()
        first.stages.append(StageTiming(name="s", seconds=1.0, gc_passes=2))
        second.stages.append(StageTiming(name="s", seconds=1.0, gc_passes=3))
        second.stages.append(StageTiming(name="quiet", seconds=1.0))
        merged = StageTimings.merged([first, second])
        assert [stage.gc_passes for stage in merged.stages] == [5, 0]
        lines = merged.render().splitlines()
        assert lines[1].endswith("  5 gc passes")
        assert "gc passes" not in lines[2]
