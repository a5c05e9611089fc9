"""Request-schema validation: every bad field, one round trip."""

from __future__ import annotations

import pytest

from repro.analysis.study import StudyConfig
from repro.serve import SchemaError, parse_study_request, parse_sweep_request


def _fields(error: SchemaError) -> list[str]:
    return [entry["field"] for entry in error.errors]


class TestStudyRequest:
    def test_minimal_valid_body(self):
        request = parse_study_request({"schema": 1})
        assert request.config == StudyConfig()
        assert request.resume is False

    def test_fields_round_trip(self):
        request = parse_study_request({
            "schema": 1, "seed": 11, "n_sites": 80, "shards": 4,
            "har_models": ["endless"], "alexa_variants": ["fetch"],
            "fault_profile": "flaky-dns", "dns_study_days": 0.5,
            "resume": True,
        })
        config = request.config
        assert (config.seed, config.n_sites, config.shards) == (11, 80, 4)
        assert config.har_models == ("endless",)
        assert config.alexa_variants == ("fetch",)
        assert config.fault_profile == "flaky-dns"
        assert request.resume is True

    def test_missing_schema_rejected(self):
        with pytest.raises(SchemaError) as exc:
            parse_study_request({"seed": 7})
        assert _fields(exc.value) == ["schema"]

    def test_unsupported_schema_version_rejected(self):
        with pytest.raises(SchemaError) as exc:
            parse_study_request({"schema": 99, "seed": 7})
        assert _fields(exc.value) == ["schema"]
        assert "99" in exc.value.errors[0]["message"]

    def test_unknown_field_rejected_with_alternatives(self):
        with pytest.raises(SchemaError) as exc:
            parse_study_request({"schema": 1, "sites": 80})
        assert _fields(exc.value) == ["sites"]
        assert "n_sites" in exc.value.errors[0]["message"]

    def test_wrong_type_rejected(self):
        with pytest.raises(SchemaError) as exc:
            parse_study_request({"schema": 1, "n_sites": "many"})
        assert _fields(exc.value) == ["n_sites"]

    def test_bool_is_not_an_integer(self):
        with pytest.raises(SchemaError):
            parse_study_request({"schema": 1, "seed": True})

    @pytest.mark.parametrize(
        "name, value",
        [("executor", "process:8"), ("parallelism", 8),
         ("ecosystem_overrides", {})],
    )
    def test_server_owned_fields_rejected(self, name, value):
        with pytest.raises(SchemaError) as exc:
            parse_study_request({"schema": 1, name: value})
        assert _fields(exc.value) == [name]
        assert "server-owned" in exc.value.errors[0]["message"]

    def test_every_bad_field_reported_at_once(self):
        with pytest.raises(SchemaError) as exc:
            parse_study_request({
                "schema": 2, "bogus": 1, "executor": "thread",
                "n_sites": "x", "resume": "yes",
            })
        assert set(_fields(exc.value)) == {
            "schema", "bogus", "executor", "n_sites", "resume",
        }

    @pytest.mark.parametrize("field, value", [
        ("alexa_variants", ["teapot"]),
        ("n_sites", -5),
        ("n_sites", 0),
        ("ha_sample_share", -0.5),
        ("alexa_share", 1.5),
        ("dns_study_days", -2),
    ], ids=["unknown-variant", "negative-sites", "zero-sites",
            "negative-ha-share", "alexa-share-above-1", "negative-dns-days"])
    def test_semantically_bad_config_rejected(self, field, value):
        with pytest.raises(SchemaError) as exc:
            parse_study_request({"schema": 1, field: value})
        assert _fields(exc.value) == ["(config)"]

    def test_non_object_body_rejected(self):
        with pytest.raises(SchemaError) as exc:
            parse_study_request([1, 2, 3])
        assert _fields(exc.value) == ["(body)"]


class TestSweepRequest:
    def test_minimal_valid_body(self):
        request = parse_sweep_request({"schema": 1})
        assert request.spec.seeds == (7,)
        assert request.spec.axes == ()

    def test_grid_round_trip(self):
        request = parse_sweep_request({
            "schema": 1,
            "base": {"n_sites": 80, "dns_study_days": 0.25},
            "seeds": [7, 8],
            "axes": {"epochs": [0, 1]},
        })
        assert request.spec.base.n_sites == 80
        assert request.spec.seeds == (7, 8)
        assert request.spec.axes == (("epochs", (0, 1)),)
        assert request.spec.n_cells == 4

    def test_default_seeds_follow_base_seed(self):
        request = parse_sweep_request({"schema": 1, "base": {"seed": 42}})
        assert request.spec.seeds == (42,)

    def test_unknown_top_level_field_rejected(self):
        with pytest.raises(SchemaError) as exc:
            parse_sweep_request({"schema": 1, "grid": {}})
        assert _fields(exc.value) == ["grid"]

    def test_base_fields_validated_like_study(self):
        with pytest.raises(SchemaError) as exc:
            parse_sweep_request({
                "schema": 1,
                "base": {"executor": "process", "n_sites": "x"},
            })
        assert set(_fields(exc.value)) == {"base.executor", "base.n_sites"}

    def test_bad_seeds_rejected(self):
        for seeds in ([], ["7"], "7,8", [True]):
            with pytest.raises(SchemaError) as exc:
                parse_sweep_request({"schema": 1, "seeds": seeds})
            assert _fields(exc.value) == ["seeds"]

    def test_server_owned_axis_rejected(self):
        with pytest.raises(SchemaError) as exc:
            parse_sweep_request({
                "schema": 1, "axes": {"executor": ["serial", "thread"]}
            })
        assert _fields(exc.value) == ["axes.executor"]
        assert "server-owned" in exc.value.errors[0]["message"]

    def test_unknown_axis_rejected(self):
        with pytest.raises(SchemaError) as exc:
            parse_sweep_request({"schema": 1, "axes": {"bogus": [1]}})
        assert _fields(exc.value) == ["axes.bogus"]

    def test_axis_value_types_enforced(self):
        with pytest.raises(SchemaError) as exc:
            parse_sweep_request({
                "schema": 1, "axes": {"n_sites": [80, "many"]}
            })
        assert _fields(exc.value) == ["axes.n_sites"]

    def test_tuple_axis_values_are_string_lists(self):
        request = parse_sweep_request({
            "schema": 1,
            "axes": {"alexa_variants": [["fetch", "nofetch"], ["fetch"]]},
        })
        assert request.spec.axes == (
            ("alexa_variants", (("fetch", "nofetch"), ("fetch",))),
        )

    def test_bad_cell_config_rejected_before_running(self):
        with pytest.raises(SchemaError) as exc:
            parse_sweep_request({
                "schema": 1, "axes": {"har_models": [["bogus-model"]]}
            })
        assert _fields(exc.value) == ["(spec)"]
