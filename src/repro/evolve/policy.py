"""Named ecosystem-churn policies.

The paper measures a single point in time, but everything its CERT /
IP / CRED attribution hangs on — certificate SAN sets, DNS answer
pools, credential modes, hosting providers — churns constantly on the
real web.  An evolution policy names that churn: a
:class:`~repro.util.scenario.Scenario` of per-:class:`ChurnKind` rates
which the engine (:mod:`repro.evolve.engine`) applies to the synthetic
world once per *epoch*, exactly the way a fault profile names
per-event failure rates.

Policies are registered by name in :data:`POLICIES` so they travel
through ``StudyConfig``, the sweep grid and the study cache as plain
strings:

>>> from repro.evolve.policy import POLICIES
>>> POLICIES.names()
['cdn-migration', 'cert-rotation', 'dns-churn', 'h3-rollout', 'mixed', 'none', 'shard-consolidation']
>>> POLICIES.lookup("cert-rotation").empty
False
>>> POLICIES.lookup("none").empty
True
>>> POLICIES.lookup("nope")
Traceback (most recent call last):
    ...
ValueError: unknown evolution policy 'nope'; registered policies: \
['cdn-migration', 'cert-rotation', 'dns-churn', 'h3-rollout', 'mixed', 'none', \
'shard-consolidation']
"""

from __future__ import annotations

import enum

from repro.util.scenario import Registry, Scenario, Spec, halved

__all__ = ["ChurnKind", "POLICIES"]


class ChurnKind(enum.Enum):
    """Every ecosystem mutation the engine knows how to apply, by axis."""

    # Certificates (SAN-set edits on the site's servers)
    CERT_ROTATE = "cert-rotate"
    CERT_SPLIT = "cert-split"
    CERT_MERGE = "cert-merge"
    # Credentials (request-mode re-keying in the site's page trees)
    CRED_REKEY = "cred-rekey"
    # DNS (answer-pool edits on address entries)
    DNS_RESHUFFLE = "dns-reshuffle"
    DNS_RESALT = "dns-resalt"
    DNS_NARROW = "dns-narrow"
    # Hosting (fleet moves and ORIGIN-frame advertisement)
    CDN_MIGRATE = "cdn-migrate"
    ORIGIN_FLIP = "origin-flip"
    # Sharding (page-structure consolidation)
    SHARD_DROP = "shard-drop"
    # HTTP/3 (alt-svc advertisement lights up on the site's fleet;
    # measured only by browsers under an active h3_profile — see
    # repro.h3 — so a pure h3 rollout is digest-invisible to studies
    # still running with h3_profile="none", like the paper's)
    H3_ROLLOUT = "h3-rollout"


#: Kinds the engine decides once per *website*.
SITE_KINDS = frozenset(
    (ChurnKind.CERT_ROTATE, ChurnKind.CERT_SPLIT, ChurnKind.CERT_MERGE,
     ChurnKind.CRED_REKEY, ChurnKind.CDN_MIGRATE, ChurnKind.ORIGIN_FLIP,
     ChurnKind.SHARD_DROP, ChurnKind.H3_ROLLOUT)
)

#: Kinds the engine decides once per *DNS address entry*.
DNS_KINDS = frozenset(
    (ChurnKind.DNS_RESHUFFLE, ChurnKind.DNS_RESALT, ChurnKind.DNS_NARROW)
)


_CERT_ROTATION = (
    # Routine renewal dominates; SAN-set restructuring is rarer but is
    # what actually moves the CERT cause.
    Spec(ChurnKind.CERT_ROTATE, rate=0.35),
    Spec(ChurnKind.CERT_SPLIT, rate=0.06),
    Spec(ChurnKind.CERT_MERGE, rate=0.10),
    Spec(ChurnKind.CRED_REKEY, rate=0.08),
)

_DNS_CHURN = (
    Spec(ChurnKind.DNS_RESHUFFLE, rate=0.30),
    Spec(ChurnKind.DNS_RESALT, rate=0.15),
    Spec(ChurnKind.DNS_NARROW, rate=0.06, param=1.0),
)

_CDN_MIGRATION = (
    Spec(ChurnKind.CDN_MIGRATE, rate=0.12),
    Spec(ChurnKind.ORIGIN_FLIP, rate=0.10),
    Spec(ChurnKind.DNS_RESHUFFLE, rate=0.10),
)

_SHARD_CONSOLIDATION = (
    Spec(ChurnKind.SHARD_DROP, rate=0.18),
    Spec(ChurnKind.CERT_MERGE, rate=0.10),
)

#: The named policy registry.  ``"none"`` is the inert default: every
#: study runs against the pristine epoch-0 world unless churn is
#: explicitly requested.
POLICIES = Registry(
    "evolution policy",
    "policies",
    (
        Scenario("none", "no churn (the frozen-world baseline)"),
        Scenario(
            "cert-rotation",
            "certificates renew, SAN sets split and merge, services "
            "re-key their credential modes",
            _CERT_ROTATION,
        ),
        Scenario(
            "dns-churn",
            "answer pools reshuffle, rotation salts re-key, pools narrow",
            _DNS_CHURN,
        ),
        Scenario(
            "cdn-migration",
            "sites move to new hosting fleets; ORIGIN-frame advertisement "
            "flips; answers churn in the wake",
            _CDN_MIGRATION,
        ),
        Scenario(
            "shard-consolidation",
            "sharded sites fold their shards back into the root domain "
            "(reuse opportunities decay)",
            _SHARD_CONSOLIDATION,
        ),
        Scenario(
            "h3-rollout",
            "site fleets light up alt-svc h3 advertisement epoch over "
            "epoch (pairs with the h3_profile study axis; deliberately "
            "absent from 'mixed' so the longitudinal golden stays h2)",
            (Spec(ChurnKind.H3_ROLLOUT, rate=0.15),),
        ),
        Scenario(
            "mixed",
            "every churn axis at half rate (the canonical "
            "longitudinal-golden scenario)",
            # One spec per kind: the overlap kinds (DNS_RESHUFFLE,
            # CERT_MERGE) take their primary policy's rate.
            halved(
                _CERT_ROTATION + _DNS_CHURN + _CDN_MIGRATION[:2]
                + _SHARD_CONSOLIDATION[:1]
            ),
        ),
    ),
)
