"""Content digests over study results.

``study_digest`` hashes every classified dataset down to the individual
session-record level, so two studies digest equal **iff** their
measurement outputs are identical.  This is the anchor of the
determinism suite: serial, thread and process executors must produce
the same digest for the same seed, and different seeds must diverge.

The digest is one pass over the study's merged datasets: each dataset
key in sorted order, then the dataset's identity, then each site's
rendered content in sorted site order.  Nothing in the byte stream
depends on insertion order, executor or shard count.
"""

from __future__ import annotations

import hashlib
from typing import TYPE_CHECKING

from repro.core.classifier import SiteClassification
from repro.core.session import SessionRecord

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.analysis.study import Study
    from repro.crawl.classify import ClassifiedDataset

__all__ = ["dataset_digest", "study_digest"]


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


def _hash_dataset(
    hasher, dataset: "ClassifiedDataset", rendered: dict[int, bytes]
) -> None:
    """Feed ``dataset``'s header, then its site chunks in site order.

    ``rendered`` memoises chunks by ``id`` across the datasets of one
    call: the overlap datasets hold the very classification objects of
    the datasets they subset, so each object is rendered once.  Every
    object stays alive in its dataset while the call runs.
    """
    hasher.update(_dataset_header(dataset))
    for site in sorted(dataset.classifications):
        classification = dataset.classifications[site]
        chunk = rendered.get(id(classification))
        if chunk is None:
            chunk = rendered[id(classification)] = _site_chunk(
                classification
            )
        hasher.update(chunk)


def dataset_digest(dataset: "ClassifiedDataset") -> str:
    """Hex digest of one dataset's full classified content."""
    hasher = hashlib.blake2b(digest_size=16)
    _hash_dataset(hasher, dataset, {})
    return hasher.hexdigest()


def study_digest(study: "Study") -> str:
    """Hex digest over all of a study's classified datasets.

    Byte-identical datasets — every record of every site of every
    dataset, plus the classifier's verdicts — produce the same digest;
    any divergence (ordering, timing, RNG drift) changes it.

    A study degraded by quarantined shards adds a trailing chunk for
    its partial coverage, so it can never digest-collide with a
    complete run over the surviving sites.  Complete (or absent)
    coverage adds nothing.
    """
    hasher = hashlib.blake2b(digest_size=16)
    rendered: dict[int, bytes] = {}
    for key in sorted(study.datasets):
        hasher.update(repr(key).encode())
        _hash_dataset(hasher, study.datasets[key], rendered)
    coverage = study.coverage
    if coverage is not None and coverage.shards_quarantined > 0:
        hasher.update(repr((
            "partial-coverage",
            coverage.shards_quarantined,
            tuple(sorted(coverage.excluded_domains)),
        )).encode())
    return hasher.hexdigest()
