"""Content digests over study results, mergeable across site shards.

``study_digest`` hashes every classified dataset down to the individual
session-record level, so two studies digest equal **iff** their
measurement outputs are identical.  This is the anchor of the
determinism suite: serial, thread and process executors must produce
the same digest for the same seed, and different seeds must diverge.

The digest is built as a **shard-and-fold**: a :class:`DigestPart`
holds one hashed byte chunk per site per dataset, partials over
disjoint site sets merge associatively (:func:`merge_digest_parts`),
and :func:`fold_study_digest` finalises the merged part by feeding the
chunks to ``blake2b`` in a canonical sorted order.  Because hashing a
concatenation equals sequential updates, the fold of N partials is
byte-identical to the monolithic digest for every N — including N=1,
which is how :func:`study_digest` itself is implemented.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Mapping

from repro.core.classifier import SiteClassification
from repro.core.session import SessionRecord

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.analysis.study import Study
    from repro.crawl.classify import ClassifiedDataset
    from repro.runlog import RunCoverage

__all__ = [
    "DigestPart",
    "dataset_digest",
    "fold_study_digest",
    "merge_digest_parts",
    "partial_study_digest",
    "study_digest",
]


def _record_key(record: SessionRecord) -> tuple:
    return (
        record.connection_id,
        record.domain,
        record.ip,
        record.port,
        record.sans,
        record.issuer,
        record.start,
        record.end,
        record.protocol,
        record.privacy_mode,
        tuple(
            (
                request.domain,
                request.status,
                request.finished_at,
                request.with_credentials,
                request.body_size,
                request.path,
                request.method,
            )
            for request in record.requests
        ),
    )


def _classification_key(classification: SiteClassification) -> tuple:
    return (
        classification.site,
        tuple(_record_key(record) for record in classification.records),
        tuple(
            (
                hit.cause.value,
                hit.record.connection_id,
                hit.previous.connection_id,
            )
            for hit in classification.hits
        ),
    )


def _site_chunk(classification: SiteClassification) -> bytes:
    """The byte chunk one site contributes to its dataset's digest."""
    return repr(_classification_key(classification)).encode()


def _dataset_header(dataset: "ClassifiedDataset") -> bytes:
    return repr((dataset.name, dataset.model.value)).encode()


@dataclass(frozen=True)
class DigestPart:
    """A mergeable partial digest: per dataset, per-site hashed chunks.

    ``datasets`` maps each study dataset key to ``(header, chunks)``
    where ``header`` is the dataset's identity bytes and ``chunks``
    maps site -> that site's content chunk.  Parts over disjoint site
    sets merge without loss; a site appearing in two parts with
    *different* chunks is a partition error and raises on merge.
    """

    datasets: Mapping[str, tuple[bytes, Mapping[str, bytes]]] = field(
        default_factory=dict
    )

    def merge(self, other: "DigestPart") -> "DigestPart":
        merged: dict[str, tuple[bytes, dict[str, bytes]]] = {
            key: (header, dict(chunks))
            for key, (header, chunks) in self.datasets.items()
        }
        for key, (header, chunks) in other.datasets.items():
            if key not in merged:
                merged[key] = (header, dict(chunks))
                continue
            have_header, have_chunks = merged[key]
            if have_header != header:
                raise ValueError(
                    f"digest parts disagree on dataset {key!r} identity"
                )
            for site, chunk in chunks.items():
                if have_chunks.get(site, chunk) != chunk:
                    raise ValueError(
                        f"site {site!r} appears in two digest parts of "
                        f"dataset {key!r} with different content; the "
                        f"shard partition is not disjoint"
                    )
                have_chunks[site] = chunk
        return DigestPart(merged)


def partial_study_digest(
    datasets: Mapping[str, "ClassifiedDataset"],
    sites: Iterable[str] | None = None,
) -> DigestPart:
    """The :class:`DigestPart` of ``datasets``, optionally restricted
    to one shard's ``sites``.

    With ``sites=None`` the part covers everything, so
    ``fold_study_digest([partial_study_digest(study.datasets)])`` is
    the whole-study digest.  With a site filter, folding the parts of
    a disjoint site partition reproduces the same digest byte for
    byte, whatever the shard count or fold order.
    """
    wanted = None if sites is None else frozenset(sites)
    # The overlap datasets hold the very classification objects of the
    # datasets they subset, so each object is rendered once per call.
    # Keyed by id(): every object stays alive in ``datasets`` meanwhile.
    rendered: dict[int, bytes] = {}
    parts: dict[str, tuple[bytes, dict[str, bytes]]] = {}
    for key, dataset in datasets.items():
        chunks = {}
        for site, classification in dataset.classifications.items():
            if wanted is not None and site not in wanted:
                continue
            chunk = rendered.get(id(classification))
            if chunk is None:
                chunk = rendered[id(classification)] = _site_chunk(
                    classification
                )
            chunks[site] = chunk
        parts[key] = (_dataset_header(dataset), chunks)
    return DigestPart(parts)


def merge_digest_parts(parts: Iterable[DigestPart]) -> DigestPart:
    """Associative, order-insensitive merge of digest parts."""
    merged = DigestPart()
    for part in parts:
        merged = merged.merge(part)
    return merged


def fold_study_digest(
    parts: Iterable[DigestPart],
    *,
    coverage: "RunCoverage | None" = None,
) -> str:
    """Finalise merged parts into the study digest hex string.

    Feeds the hasher exactly the way the monolithic digest does: each
    dataset key (sorted), then the dataset header, then each site's
    chunk in sorted site order.

    A *partial* ``coverage`` (quarantined shards) contributes its own
    trailing chunk, so a degraded run can never digest-collide with a
    complete run over the surviving sites.  Complete (or absent)
    coverage contributes nothing — the runlog layer stays inert and
    the golden digests unchanged.
    """
    merged = merge_digest_parts(parts)
    hasher = hashlib.blake2b(digest_size=16)
    for key in sorted(merged.datasets):
        header, chunks = merged.datasets[key]
        hasher.update(repr(key).encode())
        hasher.update(header)
        for site in sorted(chunks):
            hasher.update(chunks[site])
    if coverage is not None and coverage.shards_quarantined > 0:
        hasher.update(repr((
            "partial-coverage",
            coverage.shards_quarantined,
            tuple(sorted(coverage.excluded_domains)),
        )).encode())
    return hasher.hexdigest()


def dataset_digest(dataset: "ClassifiedDataset") -> str:
    """Hex digest of one dataset's full classified content."""
    hasher = hashlib.blake2b(digest_size=16)
    hasher.update(_dataset_header(dataset))
    for site in sorted(dataset.classifications):
        hasher.update(_site_chunk(dataset.classifications[site]))
    return hasher.hexdigest()


def study_digest(study: "Study") -> str:
    """Hex digest over all of a study's classified datasets.

    Byte-identical datasets — every record of every site of every
    dataset, plus the classifier's verdicts — produce the same digest;
    any divergence (ordering, timing, RNG drift) changes it.
    Implemented as the 1-part fold, so sharded and monolithic studies
    share one digest definition.  A study degraded by quarantined
    shards folds its coverage in (see :func:`fold_study_digest`).
    """
    return fold_study_digest(
        [partial_study_digest(study.datasets)],
        coverage=getattr(study, "coverage", None),
    )
