"""The temporal evolution engine: one world, N epochs of churn.

:func:`evolve_ecosystem` advances a freshly generated world through
``config.epoch`` epochs of the named churn policy.  Each epoch makes
two deterministic passes:

1. **site pass** — every website, in rank order, compiles an
   :class:`~repro.evolve.plan.EpochPlan` for ``(seed, epoch, domain)``
   and applies whichever site-level mutations fire: shard
   consolidation, certificate rotation / SAN splits / SAN merges,
   credential re-keying, fleet migration, ORIGIN-frame flips;
2. **DNS pass** — every address entry, in sorted name order, applies
   the answer-pool mutations: reshuffles, salt re-keys, narrowing.

Because the passes run single-threaded at world-build time and every
decision draws from per-``(policy, kind, seed, epoch, domain)`` streams,
the evolved world is a pure function of its
:class:`~repro.web.ecosystem.EcosystemConfig` — which is exactly what
lets process-pool workers rebuild it independently and still produce
digest-identical studies (``tests/evolve/test_evolve_differential.py``).

Site root domains never change and no site is ever added or removed,
so every epoch of a longitudinal run crawls the *same* site list: the
per-epoch deltas the report shows are attributable to churn alone.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.evolve.plan import EpochPlan
from repro.evolve.policy import POLICIES, ChurnKind
from repro.util.scenario import Scenario, merge_counts
from repro.web.resources import RequestMode, ResourceType
from repro.web.website import ShardingStyle, Website

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.web.ecosystem import Ecosystem

__all__ = ["advance_epoch", "evolve_ecosystem"]


def evolve_ecosystem(ecosystem: "Ecosystem") -> None:
    """Apply epochs ``1..config.epoch`` of the config's churn policy.

    Called by :meth:`Ecosystem.generate` as the last build step; the
    caller guarantees ``epoch > 0`` and a non-``"none"`` policy, so the
    pristine path never reaches this module at all.

    Alongside the churn-count ledger, every epoch records the set of
    *touched names* — site root domains whose measurable state the
    epoch mutated, plus any non-site (shared service) names it churned.
    That record is what lets the sharded study cache decide, per site
    shard, whether an epoch-N artefact is still valid at epoch N+1
    (:meth:`~repro.web.ecosystem.WorldIndex.evolution_token`).
    """
    policy = POLICIES.lookup(ecosystem.config.evolution_policy)
    ledger = list(ecosystem.evolution_ledger)
    touched_log = list(ecosystem.evolution_touched)
    for epoch in range(1, ecosystem.config.epoch + 1):
        touched: set[str] = set()
        counts = advance_epoch(ecosystem, policy, epoch, touched=touched)
        ledger.append((epoch, tuple(sorted(counts.items()))))
        touched_log.append((epoch, tuple(sorted(touched))))
    ecosystem.evolution_ledger = tuple(ledger)
    ecosystem.evolution_touched = tuple(touched_log)


def advance_epoch(
    ecosystem: "Ecosystem",
    policy: Scenario | str,
    epoch: int,
    *,
    touched: set[str] | None = None,
) -> dict[str, int]:
    """Apply one epoch of ``policy`` in place; returns the churn counts.

    When ``touched`` is given, every name the epoch mutated is added to
    it: site roots for site-pass churn, and — for DNS-pass churn — the
    owning site root when the churned entry belongs to a site (root or
    shard), or the raw name for shared (service) entries.  Recording is
    conservative: a plan that fired counts as touching its domain even
    when the mutation was a structural no-op.
    """
    policy = POLICIES.resolve(policy)
    totals: dict[str, int] = {}
    if policy.empty:
        return totals
    seed = ecosystem.config.seed
    # Owner map from the pre-pass world: shard domains normalise to
    # their site root.  Built before SHARD_DROP can remove shards.
    owners: dict[str, str] = {}
    for site in ecosystem.websites:
        owners[site.domain] = site.domain
        for shard in site.shard_domains():
            owners[shard] = site.domain
    for site in ecosystem.websites:
        plan = EpochPlan.compile(
            policy, seed=seed, epoch=epoch, domain=site.domain
        )
        _evolve_site(ecosystem, site, plan)
        counts = plan.counts()
        if counts and touched is not None:
            touched.add(site.domain)
        merge_counts(totals, counts)
    for name in ecosystem.namespace.names():
        plan = EpochPlan.compile(policy, seed=seed, epoch=epoch, domain=name)
        _evolve_dns_entry(ecosystem, name, plan)
        counts = plan.counts()
        if counts and touched is not None:
            touched.add(owners.get(name, name))
        merge_counts(totals, counts)
    return totals


# ----------------------------------------------------------------------
# Site pass
# ----------------------------------------------------------------------
def _evolve_site(ecosystem: "Ecosystem", site: Website, plan: EpochPlan) -> None:
    """Apply every site-level mutation that fires for ``site``.

    Order matters and is fixed: consolidation first (so certificate and
    hosting churn see the post-consolidation shape), then SAN edits,
    then hosting moves, then credential re-keys.  The domain list is
    computed once, after consolidation — nothing below changes it.
    """
    if plan.fires(ChurnKind.SHARD_DROP):
        _drop_shards(ecosystem, site)
    domains = [site.domain] + site.shard_domains()
    if plan.fires(ChurnKind.CERT_MERGE):
        _merge_certificates(ecosystem, site, domains)
    if plan.fires(ChurnKind.CERT_SPLIT):
        _split_certificates(ecosystem, site, domains)
    if plan.fires(ChurnKind.CERT_ROTATE):
        _rotate_certificates(ecosystem, domains)
    if plan.fires(ChurnKind.CDN_MIGRATE):
        _migrate_site(ecosystem, domains, plan)
    if plan.fires(ChurnKind.ORIGIN_FLIP):
        _flip_origin_frames(ecosystem, domains)
    if plan.fires(ChurnKind.H3_ROLLOUT):
        _rollout_h3(ecosystem, domains)
    _rekey_credentials(site, plan)


def _distinct_certificates(servers) -> list:
    """Distinct certificates across ``servers``, first-seen order."""
    seen: dict[str, object] = {}
    for server in servers:
        for certificate in list(server.cert_map.values()) + [
            server.default_certificate
        ]:
            seen.setdefault(certificate.fingerprint, certificate)
    return list(seen.values())


def _drop_shards(ecosystem: "Ecosystem", site: Website) -> None:
    """Fold every shard back into the root domain (decommissioning).

    Covers resource-less shards too: they exist in DNS even when no
    sampled resource landed on them, and must be deregistered alongside
    the rest.
    """
    shards = site.shard_domains()
    if not shards:
        return
    site.rewrite_domains({shard: site.domain for shard in shards})
    for shard in shards:
        ecosystem.namespace.remove(shard)
    site.shards = ()
    site.sharding = ShardingStyle.NONE


def _merge_certificates(
    ecosystem: "Ecosystem", site: Website, domains: list[str]
) -> None:
    """SEPARATE_CERTS -> one certificate covering every site domain."""
    if site.sharding is not ShardingStyle.SEPARATE_CERTS:
        return
    servers = ecosystem.fleet_for(domains)
    olds = _distinct_certificates(servers)
    if not olds:
        return
    merged = ecosystem.issuers.issue(olds[0].issuer_org, tuple(domains))
    ecosystem.swap_certificates(
        servers, {old.fingerprint: merged for old in olds}
    )
    site.sharding = ShardingStyle.SAME_CERT_SAME_IP


def _split_certificates(
    ecosystem: "Ecosystem", site: Website, domains: list[str]
) -> None:
    """SAME_CERT_SAME_IP -> per-name certificates (certbot-per-vhost)."""
    if site.sharding is not ShardingStyle.SAME_CERT_SAME_IP:
        return
    if len(domains) < 2:
        return
    servers = ecosystem.fleet_for(domains)
    olds = _distinct_certificates(servers)
    if not olds:
        return
    issuer = olds[0].issuer_org
    for server in servers:
        server.cert_map = {
            domain: ecosystem.issuers.issue(issuer, (domain,))
            for domain in domains
        }
        server.default_certificate = server.cert_map[domains[0]]
    site.sharding = ShardingStyle.SEPARATE_CERTS


def _rotate_certificates(ecosystem: "Ecosystem", domains: list[str]) -> None:
    """Reissue every certificate on the site's fleet (same SANs/issuer).

    Routine renewal: the SAN sets — all the classifier consults — stay
    identical, only serials (and hence fingerprints) move.  Reuse
    opportunities must therefore survive rotation, which the
    longitudinal tests assert.
    """
    servers = ecosystem.fleet_for(domains)
    mapping = {
        old.fingerprint: ecosystem.issuers.issue(old.issuer_org, old.sans)
        for old in _distinct_certificates(servers)
    }
    ecosystem.swap_certificates(servers, mapping)


def _migrate_site(
    ecosystem: "Ecosystem", domains: list[str], plan: EpochPlan
) -> None:
    """Redeploy the site's fleet onto a freshly allocated hosting pool."""
    hosters = ecosystem.providers.generic_hosters()
    if not hosters:
        return
    provider = plan.rng(ChurnKind.CDN_MIGRATE).choice(hosters)
    ecosystem.migrate_fleet(domains, provider)


def _flip_origin_frames(ecosystem: "Ecosystem", domains: list[str]) -> None:
    """Toggle ORIGIN-frame advertisement on the site's fleet."""
    servers = ecosystem.fleet_for(domains)
    if not servers:
        return
    advertise = not servers[0].origin_frame_origins
    ecosystem.set_origin_frames(servers, advertise)


def _rollout_h3(ecosystem: "Ecosystem", domains: list[str]) -> None:
    """Light up alt-svc h3 advertisement on the site's fleet.

    A one-way door, like real deployments: rollout only ever *adds*
    advertising endpoints, so it commutes with the generate-time
    adoption of :func:`repro.h3.plan.apply_h3_adoption`.  Browsers only
    measure the flag under an active ``h3_profile``; a pure h3 rollout
    is invisible to an ``h3_profile="none"`` study.
    """
    for server in ecosystem.fleet_for(domains):
        server.alt_svc_h3 = True


#: Resource types whose credential mode services re-key in practice;
#: fonts stay anonymous (browsers always fetch them so) and documents /
#: iframes are navigations.
_REKEYABLE = frozenset(
    (ResourceType.SCRIPT, ResourceType.XHR, ResourceType.BEACON,
     ResourceType.IMAGE, ResourceType.STYLESHEET)
)


def _rekey_credentials(site: Website, plan: EpochPlan) -> None:
    """Flip anonymous<->credentialed fetch modes across the page trees.

    One draw per re-keyable resource, in walk order: a service moving
    its beacon behind cookie auth (``CORS_ANON`` -> ``NO_CORS``) erases
    a CRED opportunity; one switching to anonymous telemetry creates
    one.
    """
    for document in site.all_documents():
        for resource in document.walk():
            if resource.rtype not in _REKEYABLE:
                continue
            if not plan.fires(ChurnKind.CRED_REKEY):
                continue
            if resource.mode is RequestMode.CORS_ANON:
                resource.mode = RequestMode.NO_CORS
            elif resource.mode is RequestMode.NO_CORS:
                resource.mode = RequestMode.CORS_ANON


# ----------------------------------------------------------------------
# DNS pass
# ----------------------------------------------------------------------
def _evolve_dns_entry(
    ecosystem: "Ecosystem", name: str, plan: EpochPlan
) -> None:
    """Apply the answer-pool mutations that fire for one entry."""
    from repro.dns.zone import AddressEntry

    entry = ecosystem.namespace.entry(name)
    if not isinstance(entry, AddressEntry):
        return
    pool = list(entry.pool)
    salt = ...  # ellipsis = "leave the salt alone" (repoint_dns contract)
    changed = False
    if plan.fires(ChurnKind.DNS_RESHUFFLE):
        plan.rng(ChurnKind.DNS_RESHUFFLE).shuffle(pool)
        changed = True
    if plan.fires(ChurnKind.DNS_RESALT):
        salt = f"{entry.salt or name}+e{plan.unit}"
        changed = True
    if len(pool) > 1 and plan.fires(ChurnKind.DNS_NARROW):
        drop = max(1, int(plan.param(ChurnKind.DNS_NARROW, 1.0)))
        keep = max(1, len(pool) - drop)
        rng = plan.rng(ChurnKind.DNS_NARROW)
        pool = [pool[i] for i in sorted(rng.sample(range(len(pool)), keep))]
        changed = True
    if changed:
        ecosystem.repoint_dns(name, pool=tuple(pool), salt=salt)
