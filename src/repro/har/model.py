"""HAR 1.2 object model (the HTTP Archive's data format).

The HTTP Archive stores one HAR file per crawled page; the paper parses
those "to identify HTTP/2 requests on the same sessions (by socket /
connection ID) to reconstruct the HTTP/2 session lifecycle" (§4.2.1).
We model the subset of HAR the analysis touches, including the
HTTP-Archive-specific ``_securityDetails`` block that carries the
certificate SAN list used for Connection Reuse checks.

Timestamps are simulated seconds (floats), not ISO-8601 strings; the
reader treats them opaquely, exactly as the paper's pipeline treats
``startedDateTime``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["HarSecurityDetails", "HarEntry", "HarPage", "HarFile", "VALID_METHODS"]

#: Request methods the sanitizer accepts (everything else is an
#: "invalid HTTP request method" in the paper's filter list).
VALID_METHODS = frozenset(
    {"GET", "POST", "HEAD", "PUT", "DELETE", "OPTIONS", "PATCH"}
)


@dataclass(frozen=True)
class HarSecurityDetails:
    """The certificate details the HTTP Archive exports per request."""

    subject_name: str
    san_list: tuple[str, ...]
    issuer: str
    valid: bool = True


@dataclass(frozen=True)
class HarEntry:
    """One request/response pair."""

    pageref: str
    started_date_time: float
    time_ms: float
    method: str
    url: str
    http_version: str
    status: int
    body_size: int
    server_ip_address: str | None
    connection: str | None  # the socket id, as a string like in HARs
    request_id: str | None = None
    with_credentials: bool = False
    security: HarSecurityDetails | None = None

    @property
    def domain(self) -> str:
        without_scheme = self.url.split("://", 1)[-1]
        return without_scheme.split("/", 1)[0].lower()

    @property
    def path(self) -> str:
        without_scheme = self.url.split("://", 1)[-1]
        slash = without_scheme.find("/")
        return without_scheme[slash:] if slash >= 0 else "/"



@dataclass(frozen=True)
class HarPage:
    """One page load."""

    page_id: str
    started_date_time: float
    title: str
    on_load_ms: float


@dataclass
class HarFile:
    """One HAR document (one page visit in the HTTP Archive)."""

    page: HarPage
    entries: list[HarEntry] = field(default_factory=list)
    creator: str = "repro-harness"
    version: str = "1.2"
