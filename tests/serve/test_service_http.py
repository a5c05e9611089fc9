"""End-to-end HTTP contract: digests, caching, SSE, admission, drain."""

from __future__ import annotations

import http.client
import json
import threading
from pathlib import Path

import pytest

from repro.analysis.digest import study_digest
from repro.analysis.study import Study, StudyConfig
from repro.runtime import clear_ecosystem_cache

_GOLDEN_DIR = Path(__file__).resolve().parents[1] / "golden"


def _config_of(body: dict) -> StudyConfig:
    fields = {
        name: value for name, value in body.items()
        if name not in ("schema", "resume")
    }
    fields["har_models"] = tuple(fields.get("har_models", ()) or
                                 StudyConfig().har_models)
    return StudyConfig(**{
        name: tuple(value) if isinstance(value, list) else value
        for name, value in fields.items()
    })


class TestStudyEndpoint:
    def test_twice_over_http_matches_cli_digest_and_caches(
        self, serve_handle, small_body
    ):
        # The acceptance criterion: an HTTP study digests byte-identical
        # to `repro study` at the same config (same StudyConfig, no
        # serve-side knob leaks into the cache key or fold)...
        expected = study_digest(Study.run(_config_of(small_body)))
        status, first = serve_handle.post("/v1/study", small_body)
        assert status == 200
        assert first["digest"] == expected
        assert first["cached"] is False
        assert first["schema"] == 1
        assert first["coverage"]["shards_quarantined"] == 0

        # ... and the warm repeat is served from cache, byte-identical.
        status, second = serve_handle.post("/v1/study", small_body)
        assert status == 200
        assert second["digest"] == expected
        assert second["cached"] is True
        assert second["datasets"] == first["datasets"]
        assert second["headline"] == first["headline"]

    def test_fresh_service_answers_warm_without_a_world(
        self, serve_factory, small_body, tmp_path
    ):
        # A restarted server over a filled cache: the world index comes
        # from the cache, so the warm answer builds no world.
        directory = tmp_path / "shared-cache"
        status, cold = serve_factory(cache_dir=directory).post(
            "/v1/study", small_body
        )
        assert status == 200 and cold["cached"] is False
        clear_ecosystem_cache()
        fresh = serve_factory(cache_dir=directory)
        status, warm = fresh.post("/v1/study", small_body)
        assert status == 200
        assert warm["cached"] is True
        assert warm["digest"] == cold["digest"]
        (stage,) = [
            stage for stage in warm["stages"]
            if stage["name"] == "generate-ecosystem"
        ]
        assert stage["items"] == 0
        status, health = fresh.get("/v1/healthz")
        assert health["cache"]["world"]["hits"] == 1
        assert health["cache"]["world"]["writes"] == 0

    def test_sse_stream_orders_events_and_reports_reuse(
        self, serve_handle, small_body
    ):
        cold = serve_handle.post_sse("/v1/study", small_body)
        names = [name for name, _ in cold]
        # Terminal result exactly once, at the end; accounting before it.
        assert names[-1] == "result"
        assert names.count("result") == 1
        assert names[-2] == "coverage"
        assert names[0] == "stage_start"
        # Progress events never precede the opening stage_start and
        # every shard_done carries the journal's stage + a verdict.
        cold_done = [payload for name, payload in cold if name == "shard_done"]
        for payload in cold_done:
            assert payload["stage"]
            assert payload["result"] in ("reused", "recomputed")
        assert any(
            payload["result"] == "recomputed" for payload in cold_done
        )

        warm = serve_handle.post_sse("/v1/study", small_body)
        warm_done = [payload for name, payload in warm if name == "shard_done"]
        # The warm stream reports every shard as reused, none recomputed.
        assert warm_done
        assert all(payload["result"] == "reused" for payload in warm_done)
        assert len(warm_done) == len(cold_done)
        result = warm[-1][1]
        assert result["cached"] is True
        assert result["digest"] == cold[-1][1]["digest"]

    def test_validation_failure_is_a_400_with_field_list(self, serve_handle):
        status, payload = serve_handle.post("/v1/study", {
            "schema": 9, "bogus": True, "n_sites": "x",
        })
        assert status == 400
        assert payload["error"] == "bad-request"
        assert {entry["field"] for entry in payload["fields"]} == {
            "schema", "bogus", "n_sites",
        }

    def test_unknown_path_is_a_404(self, serve_handle):
        status, payload = serve_handle.post("/v1/teapot", {"schema": 1})
        assert status == 404
        assert payload["error"] == "not-found"

    def test_bad_json_is_a_400(self, serve_handle):
        connection = http.client.HTTPConnection(
            *serve_handle.server.server_address[:2], timeout=30
        )
        connection.request("POST", "/v1/study", body=b"{nope")
        response = connection.getresponse()
        payload = json.loads(response.read())
        connection.close()
        assert response.status == 400
        assert payload["error"] == "bad-json"


class TestH3Axis:
    def test_unknown_h3_profile_is_400_config_error(self, serve_handle):
        status, payload = serve_handle.post("/v1/study", {
            "schema": 1, "n_sites": 40, "h3_profile": "warp",
        })
        assert status == 400
        assert payload["error"] == "bad-request"
        fields = {entry["field"]: entry["message"]
                  for entry in payload["fields"]}
        assert "(config)" in fields
        assert "warp" in fields["(config)"]

    def test_h3_profile_sweeps_as_an_axis(self, serve_handle, small_body):
        body = {
            "schema": 1,
            "base": {key: value for key, value in small_body.items()
                     if key != "schema"},
            "axes": {"h3_profile": ["none", "broad"]},
        }
        status, payload = serve_handle.post("/v1/sweep", body)
        assert status == 200
        assert payload["n_cells"] == 2
        digests = [cell["digest"] for cell in payload["cells"]]
        assert len(set(digests)) == 2  # the rollout moves the digest

    @pytest.mark.slow
    def test_sse_h3_broad_returns_pinned_golden_digest(self, serve_handle):
        # The golden-scale config over HTTP must hash to the pinned h3
        # digest, byte for byte — no serve-side knob leaks into the h3
        # code paths any more than the clean ones.
        events = serve_handle.post_sse("/v1/study", {
            "schema": 1,
            "seed": 7,
            "n_sites": 120,
            "dns_study_days": 0.25,
            "h3_profile": "broad",
        })
        names = [name for name, _ in events]
        assert names[-1] == "result"
        pinned = (_GOLDEN_DIR / "h3_digest.txt").read_text().strip()
        assert events[-1][1]["digest"] == pinned


class TestSweepEndpoint:
    def test_sweep_cells_digest_like_studies(self, serve_factory, small_body):
        handle = serve_factory()
        body = {
            "schema": 1,
            "base": {key: value for key, value in small_body.items()
                     if key != "schema"},
            "seeds": [7, 8],
        }
        status, payload = handle.post("/v1/sweep", body)
        assert status == 200
        assert payload["kind"] == "sweep"
        assert payload["n_cells"] == 2
        seeds = [cell["seed"] for cell in payload["cells"]]
        assert seeds == [7, 8]
        seed7 = payload["cells"][0]
        expected = study_digest(Study.run(_config_of(small_body)))
        assert seed7["digest"] == expected
        # Warm repeat: every cell served from cache.
        status, warm = handle.post("/v1/sweep", body)
        assert status == 200
        assert warm["cached"] is True
        assert [cell["digest"] for cell in warm["cells"]] == [
            cell["digest"] for cell in payload["cells"]
        ]


class TestAdmissionControl:
    def test_beyond_max_inflight_is_a_429(self, serve_factory, small_body):
        handle = serve_factory(max_inflight=2)
        # Occupy both slots deterministically, then knock.
        assert handle.service.admit()
        assert handle.service.admit()
        try:
            status, payload = handle.post("/v1/study", small_body)
            assert status == 429
            assert payload["error"] == "busy"
        finally:
            handle.service.release()
            handle.service.release()
        # Slots freed: the same request is admitted and runs.
        status, payload = handle.post("/v1/study", small_body)
        assert status == 200

    def test_draining_refuses_new_requests_with_503(
        self, serve_factory, small_body
    ):
        handle = serve_factory()
        handle.service.drain()
        status, payload = handle.post("/v1/study", small_body)
        assert status == 503
        assert payload["error"] == "draining"


class TestConcurrentClients:
    def test_four_clients_leave_cache_stats_exactly_consistent(
        self, serve_factory, small_body
    ):
        handle = serve_factory()
        seeds = [11, 12, 13, 14]
        bodies = {seed: {**small_body, "seed": seed} for seed in seeds}
        for seed in seeds:  # warm every config serially
            status, _ = handle.post("/v1/study", bodies[seed])
            assert status == 200

        # Measure the per-warm-run lookup footprint once...
        before = handle.service.cache.stats_snapshot()
        status, payload = handle.post("/v1/study", bodies[seeds[0]])
        assert status == 200 and payload["cached"] is True
        after_one = handle.service.cache.stats_snapshot()
        delta_one = {
            kind: {
                field: after_one[kind][field] - before.get(kind, {}).get(
                    field, 0
                )
                for field in ("hits", "misses", "writes", "errors")
            }
            for kind in after_one
        }
        assert any(
            counts["hits"] > 0 for counts in delta_one.values()
        )

        # ... then hit the server with 4 concurrent warm clients: the
        # lock-guarded counters must land on exactly 4x that footprint.
        results: dict[int, dict] = {}
        errors: list[BaseException] = []
        barrier = threading.Barrier(len(seeds))

        def client(seed: int) -> None:
            barrier.wait()
            try:
                status, payload = handle.post("/v1/study", bodies[seed])
                assert status == 200
                results[seed] = payload
            except BaseException as error:  # pragma: no cover
                errors.append(error)

        threads = [
            threading.Thread(target=client, args=(seed,)) for seed in seeds
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert not errors
        assert all(results[seed]["cached"] for seed in seeds)

        after_four = handle.service.cache.stats_snapshot()
        delta_four = {
            kind: {
                field: after_four[kind][field] - after_one[kind][field]
                for field in ("hits", "misses", "writes", "errors")
            }
            for kind in after_four
        }
        assert delta_four == {
            kind: {
                field: 4 * counts[field] for field in counts
            }
            for kind, counts in delta_one.items()
        }


class TestIntrospection:
    def test_healthz_reports_cache_and_inflight(
        self, serve_handle, small_body
    ):
        status, payload = serve_handle.get("/v1/healthz")
        assert status == 200
        assert payload["status"] == "ok"
        assert payload["inflight"] == 0
        assert payload["max_inflight"] == 4
        serve_handle.post("/v1/study", small_body)
        status, payload = serve_handle.get("/v1/healthz")
        assert payload["runs"] == 1
        assert payload["cache"]  # per-kind counters present
        assert all(
            set(counts) == {"hits", "misses", "writes", "errors"}
            for counts in payload["cache"].values()
        )

    def test_runs_listing_and_detail(self, serve_handle, small_body):
        serve_handle.post("/v1/study", small_body)
        status, listing = serve_handle.get("/v1/runs")
        assert status == 200
        assert len(listing["runs"]) == 1
        run = listing["runs"][0]
        assert run["status"] == "complete"
        assert run["seed"] == small_body["seed"]
        status, detail = serve_handle.get(f"/v1/runs/{run['run'][:10]}")
        assert status == 200
        assert detail["run"] == run["run"]
        assert "run-start" in detail["detail"]
        status, missing = serve_handle.get("/v1/runs/ffffffffffff")
        assert status == 404


class TestDrainMidStream:
    def test_streaming_client_gets_terminal_error_event(
        self, serve_factory, small_body
    ):
        # Drain while a cold study is mid-stream: the client must see a
        # typed terminal `error` event (with the resume hint), not a
        # dropped socket — and the interrupted journal stays resumable.
        handle = serve_factory()
        connection = http.client.HTTPConnection(
            *handle.server.server_address[:2], timeout=60
        )
        connection.request(
            "POST", "/v1/study", body=json.dumps(small_body).encode(),
            headers={"Accept": "text/event-stream"},
        )
        response = connection.getresponse()
        assert response.status == 200
        saw: list[str] = []
        while True:
            line = response.readline()
            if not line:
                break
            line = line.decode().strip()
            if line.startswith("event: "):
                saw.append(line[len("event: "):])
                if len(saw) == 1:
                    handle.service.drain()  # first event: start draining
        connection.close()
        assert saw[-1] == "error"
        assert "result" not in saw

        status, listing = handle.get("/v1/runs")
        assert [run["status"] for run in listing["runs"]] == ["resumable"]
