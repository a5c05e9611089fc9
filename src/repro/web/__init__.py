"""Synthetic web ecosystem: resources, servers, third parties, websites."""

from repro.web.ecosystem import Ecosystem, EcosystemConfig, WorldIndex
from repro.web.hosting import HostingProvider, ProviderDirectory, WELL_KNOWN_PROVIDERS
from repro.web.resources import RequestMode, Resource, ResourceType
from repro.web.server import OriginServer, build_fleet
from repro.web.thirdparty import ThirdPartyCatalog, ThirdPartyService
from repro.web.website import ShardingStyle, Website, WebsiteFactory

__all__ = [
    "Ecosystem",
    "EcosystemConfig",
    "HostingProvider",
    "ProviderDirectory",
    "WELL_KNOWN_PROVIDERS",
    "RequestMode",
    "Resource",
    "ResourceType",
    "OriginServer",
    "build_fleet",
    "ThirdPartyCatalog",
    "ThirdPartyService",
    "ShardingStyle",
    "Website",
    "WebsiteFactory",
    "WorldIndex",
]
