"""Unit tests for the churn-policy registry and epoch plans."""

from __future__ import annotations

import pytest

from repro.evolve.plan import EpochPlan
from repro.evolve.policy import DNS_KINDS, POLICIES, SITE_KINDS, ChurnKind
from repro.util.scenario import merge_counts


class TestRegistry:
    def test_expected_policies_registered(self):
        assert POLICIES.names() == [
            "cdn-migration", "cert-rotation", "dns-churn", "h3-rollout",
            "mixed", "none", "shard-consolidation",
        ]

    def test_mixed_covers_every_axis_at_half_rate(self):
        mixed = POLICIES.lookup("mixed")
        # Every kind of every pre-h3 single-axis policy appears in
        # mixed; h3-rollout stays out so the pinned longitudinal
        # golden remains h2-only.
        single_axis_kinds = set()
        for name in ("cert-rotation", "dns-churn", "cdn-migration",
                     "shard-consolidation"):
            single_axis_kinds |= POLICIES.lookup(name).kinds
        assert mixed.kinds == single_axis_kinds
        assert ChurnKind.H3_ROLLOUT not in mixed.kinds
        # And the rate of each is half its primary policy's rate.
        rotate = POLICIES.lookup("cert-rotation").spec_for(
            ChurnKind.CERT_ROTATE
        )
        assert mixed.spec_for(ChurnKind.CERT_ROTATE).rate == pytest.approx(
            rotate.rate / 2
        )

    def test_every_kind_is_site_or_dns_scoped(self):
        assert SITE_KINDS | DNS_KINDS == set(ChurnKind)
        assert not SITE_KINDS & DNS_KINDS


class TestEpochPlan:
    def test_none_compiles_to_no_plan(self):
        assert EpochPlan.compile(
            "none", seed=7, epoch=1, domain="a.com"
        ) is None

    def test_same_triple_same_draws(self):
        kwargs = dict(seed=7, epoch=3, domain="site000004.com")
        first = EpochPlan.compile("mixed", **kwargs)
        second = EpochPlan.compile("mixed", **kwargs)
        for kind in sorted(first.scenario.kinds, key=lambda k: k.value):
            assert [first.fires(kind) for _ in range(32)] == [
                second.fires(kind) for _ in range(32)
            ], kind

    @pytest.mark.parametrize("vary", ["seed", "epoch", "domain"])
    def test_each_coordinate_decorrelates(self, vary):
        base = dict(seed=7, epoch=1, domain="site000004.com")
        other = dict(base)
        other[vary] = 8 if vary != "domain" else "site000005.com"
        kind = ChurnKind.CRED_REKEY
        draws = lambda kw: [
            EpochPlan.compile("mixed", **kw).rng(kind).random()
            for _ in range(4)
        ]
        assert draws(base) != draws(other)

    def test_kind_streams_independent(self):
        plan = EpochPlan.compile("mixed", seed=7, epoch=1, domain="a.com")
        probe = EpochPlan.compile("mixed", seed=7, epoch=1, domain="a.com")
        # Draining one kind's stream must not shift another's draws.
        for _ in range(100):
            plan.fires(ChurnKind.DNS_RESHUFFLE)
        assert plan.rng(ChurnKind.CERT_ROTATE).random() == probe.rng(
            ChurnKind.CERT_ROTATE
        ).random()

    def test_counts_and_merge(self):
        plan = EpochPlan.compile(
            "shard-consolidation", seed=7, epoch=1, domain="a.com"
        )
        fired = sum(
            plan.fires(ChurnKind.SHARD_DROP) for _ in range(400)
        )
        counts = plan.counts()
        assert dict(counts).get(ChurnKind.SHARD_DROP.value, 0) == fired
        totals: dict[str, int] = {}
        merge_counts(totals, counts)
        merge_counts(totals, counts)
        assert totals[ChurnKind.SHARD_DROP.value] == 2 * fired
