"""Unit tests for the alt-svc adoption plan layer (:mod:`repro.h3`)."""

from __future__ import annotations

import pytest

from repro.h3 import H3_PROFILES, H3Kind, H3Plan, apply_h3_adoption
from repro.web.ecosystem import Ecosystem, EcosystemConfig


def _rate(profile: str, kind: H3Kind) -> float:
    return H3_PROFILES.lookup(profile).spec_for(kind).rate


class TestRegistry:
    def test_registered_names(self):
        assert H3_PROFILES.names() == ["broad", "cdn-first", "none"]

    def test_cdn_first_shape(self):
        assert _rate("cdn-first", H3Kind.PROVIDER_ADOPT) > (
            _rate("cdn-first", H3Kind.ORIGIN_ADOPT)
        )

    def test_broad_adopts_more_than_cdn_first(self):
        for kind in H3Kind:
            assert _rate("broad", kind) >= _rate("cdn-first", kind)

    def test_lookup_returns_registry_object(self):
        assert H3_PROFILES.lookup("broad") is H3_PROFILES.scenarios["broad"]


class TestAdoptFractionProfiles:
    def test_synthesised_fractions(self):
        assert _rate("adopt-0.4", H3Kind.ORIGIN_ADOPT) == 0.4
        assert _rate("adopt-0.4", H3Kind.PROVIDER_ADOPT) == 0.4
        assert not H3_PROFILES.lookup("adopt-0.4").empty

    def test_integer_spelling(self):
        assert _rate("adopt-1", H3Kind.ORIGIN_ADOPT) == 1.0

    @pytest.mark.parametrize("name", ["adopt-1.5", "adopt--0.1", "adopt-",
                                      "adopt-x", "adopt-0.5x"])
    def test_out_of_range_or_malformed_rejected(self, name):
        with pytest.raises(ValueError):
            H3_PROFILES.lookup(name)


class TestCompile:
    def test_none_compiles_to_no_plan(self):
        assert H3Plan.compile("none", seed=7) is None
        assert H3Plan.compile(H3_PROFILES.lookup("none"), seed=7) is None

    def test_named_profile_compiles(self):
        plan = H3Plan.compile("broad", seed=7)
        assert plan is not None
        assert plan.scenario is H3_PROFILES.scenarios["broad"]
        assert plan.seed == 7

    def test_zero_fraction_never_adopts(self):
        plan = H3Plan.compile("adopt-0.0", seed=7)
        assert plan is not None  # non-empty profile, inert verdicts
        assert not any(
            plan.adopts(kind, f"site{i:03d}.com")
            for kind in H3Kind for i in range(50)
        )

    def test_full_fraction_always_adopts(self):
        plan = H3Plan.compile("adopt-1.0", seed=7)
        assert all(
            plan.adopts(kind, f"site{i:03d}.com")
            for kind in H3Kind for i in range(50)
        )


class TestApplyAdoption:
    def _world(self, profile: str) -> Ecosystem:
        return Ecosystem.generate(
            EcosystemConfig(seed=7, n_sites=40, h3_profile=profile)
        )

    def test_none_profile_applies_nothing(self):
        assert apply_h3_adoption(self._world("none")) == ()

    def test_broad_profile_adopts_both_populations(self):
        counts = dict(apply_h3_adoption(self._world("broad")))
        assert counts.get("origin-adopt", 0) > 0
        assert counts.get("provider-adopt", 0) > 0

    def test_application_is_idempotent(self):
        # Flags are only ever set, never cleared: a second application
        # (e.g. h3-rollout churn after generation) changes nothing.
        world = self._world("broad")
        before = {
            site.domain: [
                server.alt_svc_h3
                for server in world.fleet_for([site.domain])
            ]
            for site in world.websites
        }
        apply_h3_adoption(world)
        after = {
            site.domain: [
                server.alt_svc_h3
                for server in world.fleet_for([site.domain])
            ]
            for site in world.websites
        }
        assert before == after

    def test_broad_world_advertises_more_than_clean(self):
        def advertising(world: Ecosystem) -> int:
            count = 0
            for site in world.websites:
                domains = [site.domain, *site.shard_domains()]
                count += sum(
                    1 for server in world.fleet_for(domains)
                    if server.alt_svc_h3
                )
            return count

        assert advertising(self._world("broad")) > (
            advertising(self._world("none"))
        )
