"""Resources and page trees.

A page is a tree: the document references resources, and resources
(scripts, mostly) can reference further resources once they execute —
the paper's motivating chains are exactly such trees, e.g. the
``googletagmanager.com`` script that "downloads a script from
``google-analytics.com``, loading further resources" (§5.3.1).

Each resource carries the *request mode* the browser will fetch it with.
The mode, together with the origin relationship, determines whether the
Fetch Standard lets the request carry credentials — which is the whole
CRED story (§3).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterator

from repro.util.domains import is_valid_hostname, normalize

__all__ = ["ResourceType", "RequestMode", "Resource"]


@lru_cache(maxsize=1 << 16)
def _validated_domain(domain: str) -> str:
    """Normalise and validate a resource domain (memoized, pure)."""
    normalized = normalize(domain)
    if not is_valid_hostname(normalized):
        raise ValueError(f"invalid resource domain: {normalized!r}")
    return normalized


class ResourceType(enum.Enum):
    """What kind of content a resource is (drives sizes and modes)."""

    DOCUMENT = "document"
    SCRIPT = "script"
    STYLESHEET = "stylesheet"
    IMAGE = "image"
    FONT = "font"
    XHR = "xhr"
    BEACON = "beacon"
    MEDIA = "media"
    IFRAME = "iframe"


class RequestMode(enum.Enum):
    """Simplified WHATWG Fetch request mode + credentials mode.

    * ``NAVIGATE`` — top-level document loads; always credentialed.
    * ``NO_CORS`` — classic scripts, images, stylesheets without a
      ``crossorigin`` attribute; requests include credentials.
    * ``CORS_ANON`` — CORS requests with credentials mode
      "same-origin": fonts, ES modules, ``crossorigin=anonymous``
      elements, plain ``fetch()``.  Cross-origin requests omit
      credentials, which flips Chromium's ``privacy_mode`` and
      partitions the connection pool.
    * ``CORS_CREDENTIALED`` — CORS with credentials mode "include"
      (``withCredentials`` XHR, ``fetch(..., credentials:'include')``).
    """

    NAVIGATE = "navigate"
    NO_CORS = "no-cors"
    CORS_ANON = "cors-anonymous"
    CORS_CREDENTIALED = "cors-credentialed"


#: Default request mode per resource type, matching how browsers load
#: markup without explicit crossorigin attributes.
_DEFAULT_MODES: dict[ResourceType, RequestMode] = {
    ResourceType.DOCUMENT: RequestMode.NAVIGATE,
    ResourceType.SCRIPT: RequestMode.NO_CORS,
    ResourceType.STYLESHEET: RequestMode.NO_CORS,
    ResourceType.IMAGE: RequestMode.NO_CORS,
    ResourceType.FONT: RequestMode.CORS_ANON,
    ResourceType.XHR: RequestMode.CORS_ANON,
    ResourceType.BEACON: RequestMode.NO_CORS,
    ResourceType.MEDIA: RequestMode.NO_CORS,
    ResourceType.IFRAME: RequestMode.NAVIGATE,
}


@dataclass
class Resource:
    """One fetchable resource plus the resources it triggers."""

    domain: str
    path: str
    rtype: ResourceType
    mode: RequestMode | None = None
    size: int = 1024
    children: list["Resource"] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.domain = _validated_domain(self.domain)
        if not self.path.startswith("/"):
            raise ValueError(f"resource path must start with '/': {self.path!r}")
        if self.mode is None:
            self.mode = _DEFAULT_MODES[self.rtype]
        if self.size < 0:
            raise ValueError(f"negative resource size: {self.size}")

    @property
    def url(self) -> str:
        return f"https://{self.domain}{self.path}"

    def walk(self) -> Iterator["Resource"]:
        """Yield this resource and all descendants, depth-first."""
        yield self
        for child in self.children:
            yield from child.walk()

    def domains(self) -> set[str]:
        """All distinct domains referenced in the subtree."""
        return {resource.domain for resource in self.walk()}
