"""The scenario-registry contract every what-if axis shares.

One parametrised suite over the three registries (fault profiles,
evolution policies, h3 profiles) and their plans; the axis-specific
checks (which kinds ``chaos`` covers, ``adopt-<fraction>`` parsing,
``task_crash``, ...) stay with their axes.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from typing import Callable

import pytest

from repro.evolve import POLICIES, ChurnKind, EpochPlan
from repro.faults import FAULTS, FaultKind, FaultPlan
from repro.h3 import H3_PROFILES, H3Kind, H3Plan
from repro.util.rng import stable_hash
from repro.util.scenario import Registry, Scenario, Spec, halved


@dataclass(frozen=True)
class Axis:
    registry: Registry
    kinds: type
    compile: Callable[[str], object]
    unknown_message: str


AXES = {
    "faults": Axis(
        FAULTS, FaultKind,
        lambda name: FaultPlan.compile(
            name, seed=7, run="alexa-fetch", domain="a.com"
        ),
        "unknown fault profile 'x'; registered profiles: ['broken-tls', "
        "'cache-rot', 'chaos', 'flaky-dns', 'h2-churn', 'none', "
        "'slow-origin', 'worker-crash', 'worker-poison']",
    ),
    "evolve": Axis(
        POLICIES, ChurnKind,
        lambda name: EpochPlan.compile(
            name, seed=7, epoch=1, domain="a.com"
        ),
        "unknown evolution policy 'x'; registered policies: "
        "['cdn-migration', 'cert-rotation', 'dns-churn', 'h3-rollout', "
        "'mixed', 'none', 'shard-consolidation']",
    ),
    "h3": Axis(
        H3_PROFILES, H3Kind,
        lambda name: H3Plan.compile(name, seed=7),
        "unknown h3 profile 'x'; registered profiles: ['broad', "
        "'cdn-first', 'none'] (or adopt-<fraction> with fraction in "
        "[0, 1])",
    ),
}


@pytest.fixture(params=sorted(AXES))
def axis(request) -> Axis:
    return AXES[request.param]


class TestRegistryContract:
    def test_names_sorted_and_include_none(self, axis):
        names = axis.registry.names()
        assert names == sorted(names)
        assert "none" in names

    def test_none_is_empty_and_the_rest_are_not(self, axis):
        for name in axis.registry.names():
            assert axis.registry.lookup(name).empty == (name == "none")

    def test_none_compiles_to_none(self, axis):
        assert axis.compile("none") is None

    def test_every_other_name_compiles_to_a_plan(self, axis):
        for name in axis.registry.names():
            if name != "none":
                assert axis.compile(name).scenario.name == name

    def test_unknown_name_message_is_pinned(self, axis):
        # The CLI and the HTTP service's 400 bodies show this verbatim.
        with pytest.raises(ValueError) as error:
            axis.registry.lookup("x")
        assert str(error.value) == axis.unknown_message
        with pytest.raises(ValueError) as error:
            axis.compile("x")
        assert str(error.value) == axis.unknown_message

    def test_scenario_instances_pass_through(self, axis):
        scenario = axis.registry.lookup(axis.registry.names()[0])
        assert axis.registry.resolve(scenario) is scenario

    def test_duplicate_kinds_rejected(self, axis):
        for kind in axis.kinds:
            with pytest.raises(ValueError,
                               match="duplicate kinds in scenario 'dup'"):
                Scenario("dup", "test", (Spec(kind, 0.1), Spec(kind, 0.2)))

    @pytest.mark.parametrize("rate", [-0.01, 1.01, 1.5])
    def test_out_of_range_rates_rejected(self, axis, rate):
        for kind in axis.kinds:
            with pytest.raises(ValueError, match=re.escape(
                f"{kind.value} rate must be in [0, 1], got {rate}"
            )):
                Spec(kind, rate=rate)

    def test_halved_halves_rate_and_keeps_param(self, axis):
        for name in axis.registry.names():
            specs = axis.registry.lookup(name).specs
            for spec, half in zip(specs, halved(specs), strict=True):
                assert half.kind is spec.kind
                assert half.rate == spec.rate / 2.0
                assert half.param == spec.param


class TestSeedContract:
    """Stream seeds are ``stable_hash(TAG, name, kind, seed, unit,
    domain)`` with ``unit`` keeping its type; the pinned goldens depend
    on every byte of it."""

    @pytest.mark.parametrize("tag, name, unit, plan", [
        ("fault", "chaos", "alexa-fetch", lambda: FaultPlan.compile(
            "chaos", seed=7, run="alexa-fetch", domain="a.com"
        )),
        ("evolve", "mixed", 1, lambda: EpochPlan.compile(
            "mixed", seed=7, epoch=1, domain="a.com"
        )),
    ], ids=["fault", "evolve"])
    def test_first_draw_per_kind(self, tag, name, unit, plan):
        plan = plan()
        assert type(plan.unit) is type(unit) and plan.unit == unit
        for kind in plan.scenario.kinds:
            expected = random.Random(
                stable_hash(tag, name, kind.value, 7, unit, "a.com")
            ).random()
            assert plan.rng(kind).random() == expected, kind

    def test_h3_verdicts_are_the_pure_threshold_hash(self):
        plan = H3Plan.compile("broad", seed=7)
        for kind in H3Kind:
            rate = plan.scenario.spec_for(kind).rate
            for index in range(50):
                name = f"site{index:03d}.com"
                bucket = stable_hash("h3", kind.value, 7, name) % 10_000
                assert plan.adopts(kind, name) == (bucket < rate * 10_000)

