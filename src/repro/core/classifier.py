"""The §4.1 redundancy classifier — the paper's core contribution.

Given the session records of one website visit, decide for every
connection whether it was redundant and attribute it to the root causes
of §3.  The rules, verbatim from the paper:

* Connections are grouped by destination IP to find CERT and CRED;
  IP-cause detection additionally consults the certificate SANs of
  *previous* connections.
* "Domains which web servers explicitly exclude, e.g., via HTTP status
  421, are ignored."
* Corner case: a connection to the *same initial domain* as an earlier
  connection but on a different IP "would be classified as IP, but only
  happen[s] when CRED forbids reuse and multiple IPs are announced via
  DNS" — it is marked CRED.
* A connection can be redundant for several causes at once, but each
  cause type is counted once per connection (the worked example in
  §4.1: four same-IP connections alternating two certificates yield
  three CERT attributions and two CRED attributions).

Attribution keeps the *earliest* matching previous connection, which is
what the "prev:" rows of Tables 2/4/8/10/12 report.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.causes import Cause
from repro.core.session import LifetimeModel, SessionRecord

__all__ = ["CauseHit", "SiteClassification", "classify_site"]

_HTTP_MISDIRECTED = 421


@dataclass(frozen=True)
class CauseHit:
    """One (connection, cause) attribution with its reusable witness."""

    record: SessionRecord
    cause: Cause
    previous: SessionRecord


@dataclass
class SiteClassification:
    """The classifier's verdict for one website."""

    site: str
    total_connections: int
    h2_connections: int
    records: list[SessionRecord] = field(default_factory=list)
    hits: list[CauseHit] = field(default_factory=list)
    excluded_domains: set[str] = field(default_factory=set)
    #: HTTP/3 sessions observed (0 everywhere the world's ``h3_profile``
    #: is ``"none"``); with h3 present, ``records`` holds the joint
    #: h2+h3 eligible set and redundancy is judged per protocol.
    h3_connections: int = 0

    def __getstate__(self) -> dict:
        # A set pickles in string-hash order; a sorted list pickles to
        # the same bytes under every PYTHONHASHSEED.
        state = dict(self.__dict__)
        state["excluded_domains"] = sorted(self.excluded_domains)
        return state

    def __setstate__(self, state: dict) -> None:
        # Also loads the older state, which held the set itself.
        state["excluded_domains"] = set(state["excluded_domains"])
        self.__dict__ = state

    @property
    def redundant_count(self) -> int:
        return len({hit.record.connection_id for hit in self.hits})

    def count(self, cause: Cause) -> int:
        """Number of connections attributed to ``cause``."""
        return len(
            {hit.record.connection_id for hit in self.hits if hit.cause is cause}
        )

    def hits_for(self, cause: Cause) -> list[CauseHit]:
        return [hit for hit in self.hits if hit.cause is cause]


def _excluded_domains(records: list[SessionRecord]) -> set[str]:
    """Domains that ever answered 421 — reuse is explicitly refused."""
    excluded = set()
    for record in records:
        for request in record.requests:
            if request.status == _HTTP_MISDIRECTED:
                excluded.add(request.domain)
    return excluded


def classify_site(
    site: str,
    records: list[SessionRecord],
    *,
    model: LifetimeModel = LifetimeModel.ACTUAL,
) -> SiteClassification:
    """Classify one site's connections under a lifetime model.

    Multiplexed sessions of both generations are eligible: HTTP/2 (the
    paper's corpus) and, for worlds with an active ``h3_profile``,
    HTTP/3.  A connection's redundancy witnesses are restricted to
    priors of the *same* protocol — an h3 session cannot be sent over
    an h2 one or vice versa, so the CERT/IP/CRED attribution naturally
    splits by protocol (h3-free inputs classify byte-identically to the
    h2-only classifier this extends).
    """
    excluded = _excluded_domains(records)
    eligible = sorted(
        (record for record in records if record.protocol in ("h2", "h3")),
        key=lambda record: (record.start, record.connection_id),
    )
    considered = [
        record for record in eligible if record.domain not in excluded
    ]
    result = SiteClassification(
        site=site,
        total_connections=len(records),
        h2_connections=sum(
            1 for record in eligible if record.protocol == "h2"
        ),
        records=eligible,
        excluded_domains=excluded,
        h3_connections=sum(
            1 for record in eligible if record.protocol == "h3"
        ),
    )

    for index, record in enumerate(considered):
        priors = [
            prior
            for prior in considered[:index]
            if prior.protocol == record.protocol
            and prior.alive_at(record.start, model)
        ]
        if not priors:
            continue

        cert_prev: SessionRecord | None = None
        cred_prev: SessionRecord | None = None
        ip_prev: SessionRecord | None = None
        for prior in priors:  # priors are in establishment order
            if (cert_prev is not None and cred_prev is not None
                    and ip_prev is not None):
                break  # every cause already has its earliest witness
            same_ip = prior.ip == record.ip and prior.port == record.port
            covers = prior.covers(record.domain)
            same_domain = prior.domain == record.domain
            if same_ip and covers:
                cred_prev = cred_prev or prior
            elif same_ip and not covers:
                cert_prev = cert_prev or prior
            elif not same_ip and same_domain:
                # The §4.1 corner case: same initial domain on another
                # announced IP — only possible when CRED already forbade
                # reuse, so it is marked CRED rather than IP.
                cred_prev = cred_prev or prior
            elif not same_ip and covers:
                ip_prev = ip_prev or prior

        if cert_prev is not None:
            result.hits.append(CauseHit(record=record, cause=Cause.CERT,
                                        previous=cert_prev))
        if cred_prev is not None:
            result.hits.append(CauseHit(record=record, cause=Cause.CRED,
                                        previous=cred_prev))
        if ip_prev is not None:
            result.hits.append(CauseHit(record=record, cause=Cause.IP,
                                        previous=ip_prev))
    return result
