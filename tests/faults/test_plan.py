"""Unit tests for the fault-plan model itself."""

from __future__ import annotations

import pickle

import pytest

from repro.analysis.study import StudyConfig
from repro.faults import FAULTS, FaultKind, FaultPlan
from repro.sweep import SweepSpec
from repro.util.scenario import Scenario, Spec, merge_counts


def _always(kind: FaultKind, param: float = 0.0) -> Scenario:
    """A single-kind profile that fires on every draw."""
    return Scenario(
        name=f"always-{kind.value}", description="test",
        specs=(Spec(kind, rate=1.0, param=param),),
    )


class TestRegistry:
    def test_required_profiles_registered(self):
        for name in ("none", "flaky-dns", "broken-tls", "h2-churn",
                     "slow-origin", "chaos"):
            assert name in FAULTS.names()

    def test_chaos_covers_every_named_profile(self):
        named = set()
        for name in ("flaky-dns", "broken-tls", "h2-churn", "slow-origin"):
            named |= FAULTS.lookup(name).kinds
        assert FAULTS.lookup("chaos").kinds == named


class TestCompile:
    def test_empty_profile_compiles_to_none(self):
        assert FaultPlan.compile(
            "none", seed=7, run="alexa-fetch", domain="site000001.com"
        ) is None

    def test_named_profile_compiles_to_plan(self):
        plan = FaultPlan.compile(
            "flaky-dns", seed=7, run="alexa-fetch", domain="site000001.com"
        )
        assert plan is not None
        assert plan.scenario.name == "flaky-dns"

    def test_profile_instances_accepted(self):
        plan = FaultPlan.compile(
            _always(FaultKind.H2_GOAWAY), seed=1, run="r", domain="d"
        )
        assert plan.fires(FaultKind.H2_GOAWAY)

    def test_verifies_tls_only_for_tls_profiles(self):
        tls = FaultPlan.compile("broken-tls", seed=1, run="r", domain="d")
        dns = FaultPlan.compile("flaky-dns", seed=1, run="r", domain="d")
        chaos = FaultPlan.compile("chaos", seed=1, run="r", domain="d")
        assert tls.verifies_tls
        assert not dns.verifies_tls
        assert chaos.verifies_tls


class TestDeterminism:
    def _draws(self, seed: int, run: str, domain: str, n: int = 200):
        plan = FaultPlan.compile("chaos", seed=seed, run=run, domain=domain)
        return [
            (plan.fires(FaultKind.DNS_TIMEOUT), plan.fires(FaultKind.H2_GOAWAY))
            for _ in range(n)
        ]

    def test_identical_coordinates_identical_draws(self):
        assert self._draws(7, "alexa-fetch", "a.com") == (
            self._draws(7, "alexa-fetch", "a.com")
        )

    def test_domains_decorrelated(self):
        assert self._draws(7, "alexa-fetch", "a.com") != (
            self._draws(7, "alexa-fetch", "b.com")
        )

    def test_runs_decorrelated(self):
        assert self._draws(7, "alexa-fetch", "a.com") != (
            self._draws(7, "alexa-nofetch", "a.com")
        )

    def test_seeds_decorrelated(self):
        assert self._draws(7, "alexa-fetch", "a.com") != (
            self._draws(8, "alexa-fetch", "a.com")
        )

    def test_kind_streams_independent(self):
        # Consuming draws of one kind must not shift another kind's
        # sequence — this is what lets a profile tune one rate without
        # reshuffling every other fault.
        plan_a = FaultPlan.compile("chaos", seed=7, run="r", domain="d")
        plan_b = FaultPlan.compile("chaos", seed=7, run="r", domain="d")
        for _ in range(50):
            plan_b.fires(FaultKind.DNS_SERVFAIL)  # extra traffic on one kind
        seq_a = [plan_a.fires(FaultKind.H2_RST_STREAM) for _ in range(100)]
        seq_b = [plan_b.fires(FaultKind.H2_RST_STREAM) for _ in range(100)]
        assert seq_a == seq_b

    def test_unlisted_kind_never_fires_and_draws_nothing(self):
        plan = FaultPlan.compile("flaky-dns", seed=7, run="r", domain="d")
        reference = FaultPlan.compile("flaky-dns", seed=7, run="r", domain="d")
        for _ in range(20):
            assert not plan.fires(FaultKind.H2_GOAWAY)
        # The DNS streams must be untouched by the no-op draws above.
        seq = [plan.fires(FaultKind.DNS_TIMEOUT) for _ in range(50)]
        ref = [reference.fires(FaultKind.DNS_TIMEOUT) for _ in range(50)]
        assert seq == ref


class TestCounts:
    def test_counts_tally_fired_only(self):
        plan = FaultPlan.compile(
            _always(FaultKind.SRV_ERROR_BURST), seed=1, run="r", domain="d"
        )
        assert plan.counts() == ()
        for _ in range(3):
            assert plan.fires(FaultKind.SRV_ERROR_BURST)
        assert plan.counts() == (("srv-5xx-burst", 3),)

    def test_param_defaults(self):
        plan = FaultPlan.compile(
            _always(FaultKind.SRV_LATENCY_SPIKE, param=10.0),
            seed=1, run="r", domain="d",
        )
        assert plan.param(FaultKind.SRV_LATENCY_SPIKE) == 10.0
        assert plan.param(FaultKind.H2_GOAWAY, 42.0) == 42.0

    def test_merge_counts(self):
        totals: dict[str, int] = {}
        merge_counts(totals, (("a", 1), ("b", 2)))
        merge_counts(totals, (("b", 3),))
        assert totals == {"a": 1, "b": 5}

    def test_plan_pickles(self):
        # Plans never cross process boundaries today (workers rebuild
        # them), but the RNG streams must not make them unpicklable if
        # a future artefact embeds one.
        plan = FaultPlan.compile("chaos", seed=7, run="r", domain="d")
        plan.fires(FaultKind.DNS_TIMEOUT)
        clone = pickle.loads(pickle.dumps(plan))
        seq = [plan.fires(FaultKind.DNS_TIMEOUT) for _ in range(20)]
        cloned_seq = [clone.fires(FaultKind.DNS_TIMEOUT) for _ in range(20)]
        assert seq == cloned_seq


class TestConfigIntegration:
    def test_study_config_validates_profile(self):
        StudyConfig(fault_profile="flaky-dns").validate()
        with pytest.raises(ValueError, match="unknown fault profile"):
            StudyConfig(fault_profile="bogus").validate()

    def test_small_config_keeps_profile(self):
        config = StudyConfig(n_sites=2000, fault_profile="h2-churn")
        assert config.small().fault_profile == "h2-churn"

    def test_sweep_axis_parses(self):
        axes = SweepSpec.parse_axes(["fault_profile=none,flaky-dns"])
        assert axes == (("fault_profile", ("none", "flaky-dns")),)
        spec = SweepSpec(base=StudyConfig(n_sites=40), axes=axes)
        labels = [cell.variant_label() for cell in spec.cells()]
        assert labels == ["fault_profile=none", "fault_profile=flaky-dns"]

    def test_sweep_axis_bad_value_fails_eagerly(self):
        spec = SweepSpec(
            base=StudyConfig(n_sites=40),
            axes=(("fault_profile", ("bogus",)),),
        )
        with pytest.raises(ValueError, match="unknown fault profile"):
            spec.cells()


class TestTaskFaults:
    """The task-level kinds driving the repro.runlog recovery tests."""

    def test_task_profiles_registered(self):
        for name in ("worker-crash", "worker-poison", "cache-rot"):
            assert name in FAULTS.names()
            assert not FAULTS.lookup(name).empty

    def test_chaos_excludes_task_kinds(self):
        # chaos must stay runnable through a bare executor; task faults
        # need the run layer to recover them.
        kinds = FAULTS.lookup("chaos").kinds
        assert FaultKind.TASK_WORKER_CRASH not in kinds
        assert FaultKind.TASK_CACHE_ROT not in kinds

    def _struck_domains(self, profile: str, n: int = 400) -> list[str]:
        domains = [f"site{index:06d}.com" for index in range(n)]
        return [
            domain for domain in domains
            if FaultPlan.compile(
                profile, seed=7, run="alexa-crawl", domain=domain
            ).task_crash(0)
        ]

    def test_worker_crash_is_attempt_bounded(self):
        # param=1.0: attempt 0 may strike, attempt 1 never does — that
        # bound is what makes the profile recoverable by re-dispatch.
        struck = self._struck_domains("worker-crash")
        assert struck  # rate 0.25 over 400 domains must hit something
        for domain in struck:
            retry_plan = FaultPlan.compile(
                "worker-crash", seed=7, run="alexa-crawl", domain=domain
            )
            assert not retry_plan.task_crash(1)

    def test_worker_poison_strikes_every_attempt(self):
        struck = self._struck_domains("worker-poison")
        assert struck  # rate 0.02 over 400 domains
        plan = FaultPlan.compile(
            "worker-poison", seed=7, run="alexa-crawl", domain=struck[0]
        )
        for attempt in (0, 1, 5, 1000):
            assert plan.task_crash(attempt)

    def test_verdict_is_a_pure_function_of_coordinates(self):
        # Recompiled plans (fresh worker per retry) must agree with the
        # original — the whole recovery story depends on it.
        for domain in ("site000000.com", "site000003.com", "other.org"):
            verdicts = {
                FaultPlan.compile(
                    "worker-crash", seed=7, run="r", domain=domain
                ).task_crash(0)
                for _ in range(3)
            }
            assert len(verdicts) == 1
        assert self._struck_domains("worker-crash") == (
            self._struck_domains("worker-crash")
        )

    def test_task_crash_false_without_a_task_spec(self):
        plan = FaultPlan.compile(
            "flaky-dns", seed=7, run="r", domain="a.com"
        )
        assert not plan.task_crash(0)

    def test_struck_crash_tallies_in_counts(self):
        struck = self._struck_domains("worker-crash")
        plan = FaultPlan.compile(
            "worker-crash", seed=7, run="alexa-crawl", domain=struck[0]
        )
        assert plan.task_crash(0)
        assert ("worker-crash", 1) in plan.counts()

    def test_task_crash_does_not_consume_rng_streams(self):
        # The hash-based verdict must not perturb the per-kind RNG
        # streams, or adding retries would change which *protocol*
        # faults fire and break digest parity with 'none'.
        hybrid = Scenario(
            name="hybrid-task-dns", description="test",
            specs=(
                Spec(FaultKind.TASK_WORKER_CRASH, rate=1.0, param=10.0),
                Spec(FaultKind.DNS_SERVFAIL, rate=0.5),
            ),
        )
        untouched = FaultPlan.compile(hybrid, seed=7, run="r",
                                      domain="a.com")
        crashed = FaultPlan.compile(hybrid, seed=7, run="r",
                                    domain="a.com")
        for attempt in range(4):
            crashed.task_crash(attempt)
        draws_untouched = [
            untouched.fires(FaultKind.DNS_SERVFAIL) for _ in range(20)
        ]
        draws_crashed = [
            crashed.fires(FaultKind.DNS_SERVFAIL) for _ in range(20)
        ]
        assert draws_untouched == draws_crashed

    def test_cache_rot_param_is_the_keep_factor(self):
        plan = FaultPlan.compile(
            "cache-rot", seed=7, run="cache-rot:alexa-crawl",
            domain="shardkey"
        )
        assert plan.param(FaultKind.TASK_CACHE_ROT) == 0.5
