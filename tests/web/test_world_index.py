"""The world index answers every question a study asks of its world.

A warm study plans, keys, samples and classifies from a
:class:`~repro.web.ecosystem.WorldIndex` alone, often one loaded from
the study cache.  These tests hold the index, and its pickled copy, to
the answers computed from the full world itself.
"""

from __future__ import annotations

import dataclasses
import pickle
import random

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.web.ecosystem import Ecosystem, EcosystemConfig, WorldIndex

_POLICIES = ("none", "cert-rotation", "dns-churn", "cdn-migration",
             "shard-consolidation", "h3-rollout", "mixed")


def _sample(world: Ecosystem, share: float, seed: int) -> list[str]:
    """The HTTP Archive sample drawn over the world's sites."""
    rng = random.Random(seed)
    return [site.domain for site in world.websites if rng.random() < share]


def _ranked(world: Ecosystem, top: int) -> list[str]:
    ordered = sorted(world.websites, key=lambda site: site.rank)
    return [site.domain for site in ordered[:top]]


def _world_key(world: Ecosystem, domains: list[str]) -> tuple:
    """The world part of a shard key, from the world's own ledger."""
    wanted = set(domains)
    roots = {site.domain for site in world.websites}
    affected = tuple(
        epoch for epoch, touched in world.evolution_touched
        if any(name in wanted or name not in roots for name in touched)
    )
    base = dataclasses.replace(world.config, evolution_policy="none", epoch=0)
    token = (world.config.evolution_policy, affected) if affected else ()
    return (base, token)


@settings(
    max_examples=12, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    n_sites=st.integers(min_value=1, max_value=120),
    epochs=st.integers(min_value=0, max_value=2),
    policy=st.sampled_from(_POLICIES),
    h3_profile=st.sampled_from(("none", "cdn-first", "broad")),
    draws=st.randoms(use_true_random=False),
)
def test_index_answers_like_the_world(
    seed, n_sites, epochs, policy, h3_profile, draws
):
    world = Ecosystem.generate(EcosystemConfig(
        seed=seed, n_sites=n_sites, epoch=epochs, evolution_policy=policy,
        h3_profile=h3_profile,
    ))
    built = world.index
    loaded = pickle.loads(pickle.dumps(built, pickle.HIGHEST_PROTOCOL))
    domains = [site.domain for site in world.websites]
    for index in (built, loaded):
        assert index.config == world.config
        for share, sample_seed in ((0.85, seed + 1), (0.5, 1), (1.0, 3)):
            assert index.httparchive_sample(share, seed=sample_seed) == (
                _sample(world, share, sample_seed)
            )
        for top in (1, max(1, n_sites // 3), n_sites, n_sites + 5):
            assert index.alexa_list(top) == _ranked(world, top)
        for _ in range(4):
            subset = draws.sample(domains, draws.randint(0, len(domains)))
            assert index.cache_world_key(subset) == _world_key(world, subset)
        for ip in world.servers:
            assert index.asdb.lookup(ip) == world.asdb.lookup(ip)
        assert index.evolution_ledger == world.evolution_ledger


def test_index_has_no_set_fields_and_pickles_small(small_ecosystem):
    index = small_ecosystem.index
    for spec in dataclasses.fields(WorldIndex):
        assert not isinstance(getattr(index, spec.name), (set, frozenset))
    # The whole point: a few KB stand in for the full world.
    assert len(pickle.dumps(index, pickle.HIGHEST_PROTOCOL)) < 20_000
