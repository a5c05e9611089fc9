"""Deterministic HTTP/3 (alt-svc) adoption plans.

The paper deliberately disabled QUIC (§4.2.2) so alt-svc upgrades could
not flip connections between HTTP/2 and HTTP/3 mid-measurement — which
makes its unused reuse-potential numbers an h2-only lower bound.  This
module is the scenario layer that re-enables the question: a named h3
profile in :data:`H3_PROFILES` describes *which part of the ecosystem*
advertises ``h3`` via alt-svc (each spec's ``rate`` is the adopting
share of one :class:`H3Kind` population), and :class:`H3Plan` compiles
that profile into pure per-name adoption verdicts.

Determinism contract
--------------------

* The adoption verdict for a name is a **pure threshold hash** of
  ``("h3", kind, seed, name)`` — no RNG stream, no draw order.  Two
  evaluations of the same name agree no matter which order the fleet is
  walked in, and the verdict is rebuilt identically inside every
  process worker (the other axes' ``(seed, unit, domain)`` seeding
  collapses to ``(seed, domain)`` here because the adoption state is world state:
  it must be identical across every run that shares the world).
* The hash deliberately **excludes** the profile name and the adoption
  fraction.  A name adopts iff its hash bucket falls below
  ``fraction * 10_000``, so every name adopted at fraction ``f`` is
  still adopted at every ``f' > f`` under the same seed — adoption is
  monotone in the fraction by construction, which is what makes
  ``adopt-<fraction>`` a sweepable axis rather than a reshuffle.
* The empty profile (``"none"``) compiles to ``None``: the generate
  hook short-circuits on ``plan is None`` before touching a single
  server, so an ``h3_profile="none"`` world is byte-identical to one
  built before this module existed (the pinned clean golden digest
  proves it).

>>> from repro.h3 import H3_PROFILES, H3Kind, H3Plan
>>> H3_PROFILES.names()
['broad', 'cdn-first', 'none']
>>> H3Plan.compile("none", seed=7) is None
True
>>> H3_PROFILES.lookup("adopt-0.4").spec_for(H3Kind.ORIGIN_ADOPT).rate
0.4
>>> plan = H3Plan.compile("broad", seed=7)
>>> plan.adopts(H3Kind.ORIGIN_ADOPT, "a.com") == \\
...     plan.adopts(H3Kind.ORIGIN_ADOPT, "a.com")
True
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.util.rng import stable_hash
from repro.util.scenario import Registry, Scenario, Spec

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.web.ecosystem import Ecosystem

__all__ = ["H3Kind", "H3Plan", "H3_PROFILES", "apply_h3_adoption"]


class H3Kind(enum.Enum):
    """The two ecosystem populations that can advertise alt-svc h3."""

    #: First-party origin fleets (a site's base domain plus its shards).
    ORIGIN_ADOPT = "origin-adopt"
    #: Third-party service providers (CDNs, fonts, ads, analytics).
    PROVIDER_ADOPT = "provider-adopt"


#: ``adopt-<fraction>`` sweepable profiles: both populations adopt at
#: the same fraction, e.g. ``adopt-0.25``.
_ADOPT_PATTERN = re.compile(r"adopt-(\d+(?:\.\d+)?)\Z")


def _parse_adopt(name: str) -> Scenario | None:
    """Synthesise a uniform-adoption profile for ``adopt-<fraction>``
    (fraction in [0, 1]), for sweeping the fraction as a numeric axis."""
    match = _ADOPT_PATTERN.fullmatch(name)
    if match is None:
        return None
    fraction = float(match.group(1))
    if not 0.0 <= fraction <= 1.0:
        return None
    return Scenario(
        name,
        f"uniform alt-svc adoption at fraction {fraction}",
        (
            Spec(H3Kind.PROVIDER_ADOPT, rate=fraction),
            Spec(H3Kind.ORIGIN_ADOPT, rate=fraction),
        ),
    )


#: The named scenario registry.  ``"none"`` is the inert default;
#: ``adopt-<fraction>`` names (e.g. ``adopt-0.25``) are synthesised on
#: lookup for sweeps over the adoption fraction.
H3_PROFILES = Registry(
    "h3 profile",
    "profiles",
    (
        Scenario("none", "no alt-svc h3 anywhere (the paper's world)"),
        Scenario(
            "cdn-first",
            "the realistic early-rollout shape: most third-party "
            "providers advertise h3, few first-party origins do",
            (
                Spec(H3Kind.PROVIDER_ADOPT, rate=0.8),
                Spec(H3Kind.ORIGIN_ADOPT, rate=0.1),
            ),
        ),
        Scenario(
            "broad",
            "late-rollout shape: h3 is the norm for providers and "
            "common for first parties (the h3 golden scenario)",
            (
                Spec(H3Kind.PROVIDER_ADOPT, rate=0.9),
                Spec(H3Kind.ORIGIN_ADOPT, rate=0.6),
            ),
        ),
    ),
    parse=_parse_adopt,
    hint=" (or adopt-<fraction> with fraction in [0, 1])",
)


@dataclass(frozen=True)
class H3Plan:
    """A profile compiled against one world seed.

    Unlike :class:`repro.faults.FaultPlan` the plan holds no RNG
    streams at all: alt-svc adoption is *world state*, evaluated while
    the ecosystem is generated, so every verdict must be reproducible
    from ``(seed, name)`` alone regardless of evaluation order.
    """

    scenario: Scenario
    seed: int

    @classmethod
    def compile(
        cls, profile: Scenario | str, *, seed: int
    ) -> "H3Plan | None":
        """Compile ``profile`` for one world; empty profiles yield ``None``.

        Returning ``None`` (rather than an inert plan) is what makes
        the h3 machinery provably free when unused: the generate hook
        guards on ``plan is not None``, so the ``none`` code path is
        literally the pre-h3 code path.
        """
        profile = H3_PROFILES.resolve(profile)
        if profile.empty:
            return None
        return cls(scenario=profile, seed=seed)

    def adopts(self, kind: H3Kind, name: str) -> bool:
        """Pure verdict: does ``name``'s fleet advertise alt-svc h3?

        A threshold hash over ``("h3", kind, seed, name)`` — the
        profile name and fraction are deliberately excluded so the
        adopted set only ever *grows* with the fraction (see the module
        docstring's determinism contract).
        """
        spec = self.scenario.spec_for(kind)
        if spec is None or spec.rate <= 0.0:
            return False
        return (
            stable_hash("h3", kind.value, self.seed, name) % 10_000
            < spec.rate * 10_000
        )


def apply_h3_adoption(ecosystem: "Ecosystem") -> tuple[tuple[str, int], ...]:
    """Flip ``alt_svc_h3`` across ``ecosystem`` per its configured profile.

    Providers adopt by service key (the whole edge fleet advertises);
    first parties adopt by root domain (the base fleet plus every shard
    fleet advertises).  Flags are only ever set, never cleared, so the
    application commutes with itself and with ``h3-rollout`` churn.
    Returns sorted ``(kind, adopted-name-count)`` pairs for reporting.
    """
    plan = H3Plan.compile(
        ecosystem.config.h3_profile, seed=ecosystem.config.seed
    )
    if plan is None:
        return ()
    adopted: dict[H3Kind, int] = {}
    for service in ecosystem.services:
        if plan.adopts(H3Kind.PROVIDER_ADOPT, service.key):
            adopted[H3Kind.PROVIDER_ADOPT] = (
                adopted.get(H3Kind.PROVIDER_ADOPT, 0) + 1
            )
            for server in ecosystem.fleet_for(list(service.domains)):
                server.alt_svc_h3 = True
    for site in ecosystem.websites:
        if plan.adopts(H3Kind.ORIGIN_ADOPT, site.domain):
            adopted[H3Kind.ORIGIN_ADOPT] = (
                adopted.get(H3Kind.ORIGIN_ADOPT, 0) + 1
            )
            fleet = ecosystem.fleet_for(
                [site.domain, *site.shard_domains()]
            )
            for server in fleet:
                server.alt_svc_h3 = True
    return tuple(sorted((kind.value, n) for kind, n in adopted.items()))
