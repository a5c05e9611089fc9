"""The synthetic web: everything the crawlers visit.

`Ecosystem.generate` builds, from one seed, a complete and internally
consistent world: autonomous systems and prefixes, origin servers with
SNI certificate maps, an authoritative DNS namespace with per-domain
load balancing, the third-party service catalogue, and N first-party
websites with popularity ranks and embedded services.

This replaces the live web of the paper's measurements; see DESIGN.md
§1 for the substitution argument.
"""

from __future__ import annotations

import dataclasses
import random
from dataclasses import dataclass, field
from typing import Sequence

from repro.dns.resolver import RecursiveResolver, ResolverInfo
from repro.dns.zone import DnsNamespace
from repro.net.address_space import PrefixAllocator
from repro.net.asdb import AsDatabase
from repro.tls.issuers import IssuerRegistry
from repro.util.rng import RngFactory
from repro.web.hosting import ProviderDirectory
from repro.web.server import OriginServer
from repro.web.thirdparty import ThirdPartyCatalog, ThirdPartyService
from repro.web.website import Website, WebsiteFactory

__all__ = ["EcosystemConfig", "Ecosystem", "WorldIndex"]


def _build_internal_pages(site, services, config, rng: random.Random) -> None:
    """Attach internal pages that keep a subset of the landing embeds."""
    from repro.web.resources import Resource, ResourceType

    by_key = {service.key: service for service in services}
    kept_keys = [
        key for key in site.embedded_services
        if rng.random() < config.internal_embed_retention
    ]
    for index in range(config.internal_pages_per_site):
        path = f"/page/{index + 1}"
        children = [
            Resource(
                domain=site.domain,
                path=f"{path}/asset-{item}",
                rtype=ResourceType.IMAGE if item % 2 else ResourceType.SCRIPT,
                size=rng.randint(500, 80_000),
            )
            for item in range(rng.randint(2, 8))
        ]
        for key in kept_keys:
            children.extend(by_key[key].embed(random.Random(rng.random())))
        site.internal_documents[path] = Resource(
            domain=site.domain,
            path=path,
            rtype=ResourceType.DOCUMENT,
            size=rng.randint(4_000, 90_000),
            children=children,
        )

#: Domain rewrites applied by a browser crawling from a given country —
#: the paper's geolocation effect ("our geolocation seems to affect
#: Google to redirect us to its German domain", Appendix A.3).
_GEO_REWRITES: dict[str, dict[str, str]] = {
    "DE": {
        "www.google.com": "www.google.de",
        "adservice.google.com": "adservice.google.de",
    },
}


@dataclass(frozen=True)
class EcosystemConfig:
    """Knobs of the synthetic world.

    The defaults are calibrated so corpus-level shares reproduce the
    paper's Table 1 shape (see DESIGN.md §4); sizes are scaled down from
    6.24 M / 100 k sites to something a laptop regenerates in seconds.
    """

    seed: int = 7
    n_sites: int = 2000
    tail_services: int = 60
    share_sharded: float = 0.45
    share_h1_only: float = 0.06
    #: Probability that an HTTP/1-only first party still carries
    #: third-party embeds (old sites have fewer trackers).
    h1_embed_damping: float = 0.5
    shard_font_probability: float = 0.35
    style_weights: tuple[float, float, float] = (0.64, 0.06, 0.30)
    #: Internal pages per site (extension beyond the paper's
    #: landing-page-only crawls).
    internal_pages_per_site: int = 2
    #: Probability each landing-page third party also appears on an
    #: internal page (internal pages are lighter, Aqeel et al. [1]).
    internal_embed_retention: float = 0.7
    # ---- mitigation ablations (§5.3.1 / conclusion) ------------------
    #: Servers advertise their reusable origins via RFC 8336 ORIGIN
    #: frames (pair with BrowserConfig.honor_origin_frame).
    advertise_origin_frames: bool = False
    #: Services coordinate DNS so coalescable domains resolve to the
    #: same answers (the paper's "point to the same CNAME" fix).
    coalesce_friendly_dns: bool = False
    #: Sharding operators merge their per-shard certificates into one
    #: (the certbot-education fix for the CERT cause).
    merged_certificates: bool = False
    # ---- temporal evolution (see repro.evolve) -----------------------
    #: Named churn policy evolving the world across epochs; ``"none"``
    #: applies no mutation at all (the hooks are provably inert).
    evolution_policy: str = "none"
    #: How many churn epochs have been applied to this world; 0 is the
    #: pristine just-generated state every pre-evolution study measured.
    epoch: int = 0
    # ---- HTTP/3 rollout (see repro.h3) -------------------------------
    #: Named alt-svc adoption profile deciding which origin fleets and
    #: third-party providers advertise ``h3``; ``"none"`` compiles to
    #: no plan at all (the hook is provably inert).
    h3_profile: str = "none"


@dataclass(frozen=True)
class WorldIndex:
    """The few answers a study needs from a world it does not crawl.

    A study reads the world for three things besides its crawls: which
    domains to sample (:meth:`httparchive_sample`, :meth:`alexa_list`),
    the world-identity part of every shard key (:meth:`cache_world_key`)
    and the IP-to-AS attribution of classification (``asdb``).  This
    index answers exactly those, pickles to about 10 KB at 200 sites,
    and is cached per config by the study cache (kind ``world``), so a
    study whose every shard is cached never builds the full
    :class:`Ecosystem`.  :attr:`Ecosystem.index` takes it from a world.

    Its fields are tuples, never sets, and the AS database pickles
    reindexed, so the index pickles to the same bytes under every
    ``PYTHONHASHSEED``.
    """

    config: EcosystemConfig
    #: Site domains in generation order (the sample draws over these).
    domains: tuple[str, ...]
    #: Site domains by popularity rank.
    ranked: tuple[str, ...]
    #: The world's :attr:`Ecosystem.evolution_ledger`.
    evolution_ledger: tuple[tuple[int, tuple[tuple[str, int], ...]], ...]
    #: The world's :attr:`Ecosystem.evolution_touched`.
    evolution_touched: tuple[tuple[int, tuple[str, ...]], ...]
    asdb: AsDatabase

    def affected_epochs(self, domains: Sequence[str]) -> tuple[int, ...]:
        """The applied epochs whose churn can alter measurements of
        ``domains``.

        An epoch affects the set when it touched one of the domains
        directly, or when it touched a name that is not a site root —
        shared third-party service entries are embedded by arbitrary
        sites, so churn there conservatively dirties everyone.
        """
        if not self.evolution_touched:
            return ()
        wanted = frozenset(domains)
        roots = frozenset(self.domains)
        affected = []
        for epoch, touched in self.evolution_touched:
            for name in touched:
                if name in wanted or name not in roots:
                    affected.append(epoch)
                    break
        return tuple(affected)

    def evolution_token(self, domains: Sequence[str]) -> tuple:
        """The evolution-history component of a per-shard cache key.

        ``()`` when no applied epoch touched ``domains`` — making the
        key equal to the pristine world's, so an epoch-N+1 study reuses
        epoch-N (or epoch-0) shard artefacts untouched by the ledger.
        Otherwise the policy name plus the affected epoch numbers: any
        churn that could change these domains' measurements changes
        the token, and with it the key.
        """
        affected = self.affected_epochs(domains)
        if not affected:
            return ()
        return (self.config.evolution_policy, affected)

    def cache_world_key(self, domains: Sequence[str]) -> tuple:
        """The world-identity part of a stage key for ``domains``.

        The base (pristine) config plus the domains' evolution token,
        instead of the raw config: two worlds differing only in epochs
        whose churn never touched ``domains`` produce equal keys, which
        is exactly the sharing per-shard incremental recompute needs.
        """
        base = dataclasses.replace(
            self.config, evolution_policy="none", epoch=0
        )
        return (base, self.evolution_token(domains))

    def alexa_list(self, top: int) -> list[str]:
        """The top-``top`` site domains by rank (the synthetic Alexa list)."""
        return list(self.ranked[:top])

    def httparchive_sample(self, share: float = 0.75, *, seed: int = 1) -> list[str]:
        """A deterministic sample of sites (the synthetic CrUX corpus).

        Pure in ``(share, seed)``: one uniform draw per site, in
        generation order.
        """
        if not 0 < share <= 1:
            raise ValueError(f"share must be in (0, 1], got {share}")
        rng = random.Random(seed)
        return [domain for domain in self.domains if rng.random() < share]


@dataclass
class Ecosystem:
    """The fully wired synthetic Internet."""

    config: EcosystemConfig
    namespace: DnsNamespace
    asdb: AsDatabase
    allocator: PrefixAllocator
    providers: ProviderDirectory
    issuers: IssuerRegistry
    servers: dict[str, OriginServer]
    services: list[ThirdPartyService]
    websites: list[Website]
    _by_domain: dict[str, Website] = field(default_factory=dict)
    #: One ``(epoch, ((kind, count), ...))`` entry per applied churn
    #: epoch; empty for pristine worlds.  Rebuilt identically inside
    #: every process worker, so the longitudinal report can render it.
    evolution_ledger: tuple[tuple[int, tuple[tuple[str, int], ...]], ...] = ()
    #: One ``(epoch, (name, ...))`` entry per applied churn epoch: the
    #: sorted names each epoch mutated.  Site-attributable churn is
    #: normalised to the owning root domain; names that are not site
    #: roots (shared third-party service entries) stay raw and dirty
    #: *every* site's measurements.  Drives per-shard cache
    #: invalidation via :meth:`WorldIndex.evolution_token`.
    evolution_touched: tuple[tuple[int, tuple[str, ...]], ...] = ()

    @classmethod
    def generate(cls, config: EcosystemConfig | None = None) -> "Ecosystem":
        """Build the world deterministically from ``config.seed``."""
        config = config or EcosystemConfig()
        rng = RngFactory(config.seed)
        namespace = DnsNamespace()
        asdb = AsDatabase()
        allocator = PrefixAllocator()
        providers = ProviderDirectory.with_well_known(allocator, asdb)
        issuers = IssuerRegistry()
        servers: dict[str, OriginServer] = {}

        catalog = ThirdPartyCatalog(
            providers=providers,
            namespace=namespace,
            issuers=issuers,
            servers=servers,
            rng=rng.stream("thirdparty"),
            tail_services=config.tail_services,
            advertise_origin_frames=config.advertise_origin_frames,
            coalesce_friendly_dns=config.coalesce_friendly_dns,
            merged_certificates=config.merged_certificates,
        )
        services = catalog.build()

        factory = WebsiteFactory(
            providers=providers,
            namespace=namespace,
            issuers=issuers,
            servers=servers,
            rng=rng.stream("websites"),
            share_sharded=config.share_sharded,
            share_h1_only=config.share_h1_only,
            shard_font_probability=config.shard_font_probability,
            style_weights=config.style_weights,
            merged_certificates=config.merged_certificates,
        )

        websites: list[Website] = []
        embed_rng = rng.stream("embeds")
        for rank in range(1, config.n_sites + 1):
            site = factory.build_site(rank)
            percentile = (rank - 1) / max(1, config.n_sites - 1)
            damping = 1.0
            if not site.supports_h2:
                damping = config.h1_embed_damping
            embedded = []
            for service in services:
                probability = service.effective_adoption(percentile) * damping
                if embed_rng.random() < probability:
                    site.document.children.extend(
                        service.embed(random.Random(embed_rng.random()))
                    )
                    embedded.append(service.key)
            site.embedded_services = tuple(embedded)
            _build_internal_pages(site, services, config, embed_rng)
            websites.append(site)

        ecosystem = cls(
            config=config,
            namespace=namespace,
            asdb=asdb,
            allocator=allocator,
            providers=providers,
            issuers=issuers,
            servers=servers,
            services=services,
            websites=websites,
        )
        ecosystem._by_domain = {site.domain: site for site in websites}
        if config.h3_profile != "none":
            # Imported lazily for the same layering reason as evolve
            # below; applied before churn so an h3-rollout policy can
            # extend an already-adopted world.
            from repro.h3.plan import apply_h3_adoption

            apply_h3_adoption(ecosystem)
        if config.epoch > 0 and config.evolution_policy != "none":
            # Imported lazily: repro.evolve sits above the web layer and
            # is only needed for worlds that actually evolve.
            from repro.evolve.engine import evolve_ecosystem

            evolve_ecosystem(ecosystem)
        # Worlds are shared between threads once built: leave no lazy
        # index work for concurrent lookups to race on.
        asdb.reindex()
        return ecosystem

    @property
    def index(self) -> WorldIndex:
        """A :class:`WorldIndex` of this world as it stands now."""
        return WorldIndex(
            config=self.config,
            domains=tuple(site.domain for site in self.websites),
            ranked=tuple(
                site.domain
                for site in sorted(self.websites, key=lambda site: site.rank)
            ),
            evolution_ledger=self.evolution_ledger,
            evolution_touched=self.evolution_touched,
            asdb=self.asdb,
        )

    # ------------------------------------------------------------------
    def server_for_ip(self, ip: str) -> OriginServer:
        """The endpoint listening on ``ip`` (KeyError if none)."""
        return self.servers[ip]

    def website(self, domain: str) -> Website | None:
        return self._by_domain.get(domain)

    def make_resolver(self, resolver_id: str = "internal") -> RecursiveResolver:
        """A fresh recursive resolver over this world's namespace."""
        info = ResolverInfo(
            resolver_id=resolver_id, ip="0.0.0.0", country="n/a", operator="sim"
        )
        return RecursiveResolver(namespace=self.namespace, info=info)

    def geo_rewrites(self, country: str) -> dict[str, str]:
        """Vantage-dependent domain rewrites for a crawler in ``country``."""
        return dict(_GEO_REWRITES.get(country.upper(), {}))

    # ------------------------------------------------------------------
    # Evolution hooks (driven by repro.evolve.engine)
    #
    # Each hook is one primitive ecosystem mutation — SAN-set edits,
    # IP-pool repointing, fleet migration, ORIGIN-frame flips.  They are
    # deliberately dumb: all policy (what mutates, how often, with which
    # RNG stream) lives in the engine, so the hooks stay reusable for
    # future scenario axes.
    # ------------------------------------------------------------------
    def dns_pool(self, domain: str) -> tuple[str, ...]:
        """The address pool ``domain`` currently resolves from.

        Follows at most one CNAME hop (the only alias depth the
        generator mints); unknown names yield an empty tuple.
        """
        from repro.dns.zone import AddressEntry, AliasEntry

        entry = self.namespace.entry(domain)
        if isinstance(entry, AliasEntry):
            entry = self.namespace.entry(entry.target)
        if isinstance(entry, AddressEntry):
            return entry.pool
        return ()

    def repoint_dns(
        self,
        domain: str,
        *,
        pool: tuple[str, ...] | None = None,
        salt: str | None | type(...) = ...,
    ) -> bool:
        """Rewrite ``domain``'s address entry, preserving policy and TTL.

        ``pool`` replaces the answer pool; ``salt`` (when passed)
        replaces the balancing salt.  Returns ``False`` for names
        without a direct address entry (aliases are left alone).
        """
        from repro.dns.zone import AddressEntry

        entry = self.namespace.entry(domain)
        if not isinstance(entry, AddressEntry):
            return False
        self.namespace.add_address(
            domain,
            AddressEntry(
                pool=entry.pool if pool is None else tuple(pool),
                policy=entry.policy,
                ttl=entry.ttl,
                salt=entry.salt if salt is ... else salt,
            ),
        )
        return True

    def fleet_for(self, domains: list[str]) -> list[OriginServer]:
        """The distinct servers behind ``domains``, in pool order."""
        seen: dict[str, OriginServer] = {}
        for domain in domains:
            for ip in self.dns_pool(domain):
                server = self.servers.get(ip)
                if server is not None and ip not in seen:
                    seen[ip] = server
        return list(seen.values())

    def swap_certificates(
        self, servers: list[OriginServer], mapping: dict[str, "Certificate"]
    ) -> int:
        """Replace certificates on ``servers`` by fingerprint.

        ``mapping`` maps an old certificate's fingerprint to its
        replacement; every ``cert_map`` slot and default certificate
        matching a fingerprint is swapped.  Returns the slot count.
        """
        swapped = 0
        for server in servers:
            for sni, certificate in server.cert_map.items():
                replacement = mapping.get(certificate.fingerprint)
                if replacement is not None:
                    server.cert_map[sni] = replacement
                    swapped += 1
            replacement = mapping.get(server.default_certificate.fingerprint)
            if replacement is not None:
                server.default_certificate = replacement
        return swapped

    def migrate_fleet(
        self, domains: list[str], provider: "HostingProvider"
    ) -> dict[str, str]:
        """Move the fleet behind ``domains`` onto fresh ``provider`` IPs.

        Allocates one new address per distinct old endpoint, installs
        configuration-identical servers there, repoints every domain's
        pool positionally, and decommissions the old endpoints.
        Returns the old-to-new address mapping.
        """
        old_servers = self.fleet_for(domains)
        if not old_servers:
            return {}
        new_ips = provider.addresses(len(old_servers))
        moves: dict[str, str] = {}
        for old, ip in zip(old_servers, new_ips):
            moves[old.ip] = ip
            self.servers[ip] = OriginServer(
                ip=ip,
                name=old.name,
                cert_map=dict(old.cert_map),
                default_certificate=old.default_certificate,
                alpn=old.alpn,
                alt_svc_h3=old.alt_svc_h3,
                origin_frame_origins=old.origin_frame_origins,
                excluded_domains=set(old.excluded_domains),
            )
        for domain in domains:
            pool = self.dns_pool(domain)
            if pool:
                self.repoint_dns(
                    domain, pool=tuple(moves.get(ip, ip) for ip in pool)
                )
        for old_ip in moves:
            del self.servers[old_ip]
        return moves

    def set_origin_frames(
        self, servers: list[OriginServer], advertise: bool
    ) -> None:
        """Toggle RFC 8336 ORIGIN-frame advertisement on ``servers``.

        When enabling, each endpoint advertises every non-excluded
        domain of its certificate map (the generator's own convention).
        Only measured by browsers with ``honor_origin_frame`` set.
        """
        for server in servers:
            if not advertise:
                server.origin_frame_origins = ()
                continue
            server.origin_frame_origins = tuple(
                f"https://{domain}"
                for domain in server.cert_map
                if domain not in server.excluded_domains
            )
