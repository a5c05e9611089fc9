"""The pickle state of the slotted session records.

Every cached crawl and classification artefact, and every crawl result
a pool worker sends back, is a pickle full of :class:`SessionRecord`
and :class:`RequestSummary` instances.  Their pickle bytes are part of
the cache format: the pin below was taken from the ``dataclasses``
generated state, so a change that moves it needs a ``CACHE_FORMAT``
bump.
"""

from __future__ import annotations

import copy
import dataclasses
import hashlib
import pickle

import pytest

from repro.analysis.study import Study, StudyConfig
from repro.core.session import RequestSummary, SessionRecord
from repro.store import StudyCache

#: blake2b of ``pickle.dumps(RECORDS, protocol=pickle.HIGHEST_PROTOCOL)``
#: with the state ``dataclasses`` generates for frozen slotted classes.
PINNED_DIGEST = "2eaf8a01da671798bc07087668bbec6c"

_SHARED = RequestSummary("cdn.example.net", 200, 3.25, body_size=1024)

RECORDS = [
    # every default left in place, no requests
    SessionRecord(1, "a.com", "10.0.0.1", 443, ("a.com",), "GTS", 0.0, None),
    SessionRecord(
        2, "b.com", "10.0.0.2", 443, ("b.com", "*.b.com"), "Let's Encrypt",
        1.0, 9.5, protocol="h3", privacy_mode=True,
        requests=(
            RequestSummary("b.com", 200, 1.5),
            RequestSummary("img.b.com", 404, 2.0, with_credentials=True,
                           body_size=12, path="/x.png", method="POST"),
            _SHARED,
        ),
    ),
    SessionRecord(
        3, "c.com", "2001:db8::1", 8443, (), "DigiCert", 4.0, 4.0,
        privacy_mode=False, requests=(_SHARED, _SHARED),
    ),
    SessionRecord(4, "d.com", "10.0.0.4", 443, ("d.com",), "GTS", 5.0, None,
                  requests=()),
    _SHARED,
]


def test_pickle_bytes_are_pinned_and_round_trip():
    blob = pickle.dumps(RECORDS, protocol=pickle.HIGHEST_PROTOCOL)
    assert hashlib.blake2b(blob, digest_size=16).hexdigest() == PINNED_DIGEST
    loaded = pickle.loads(blob)
    assert loaded == RECORDS
    # shared references stay shared through the pickle memo
    assert loaded[2].requests[0] is loaded[2].requests[1] is loaded[-1]


@pytest.mark.parametrize("record", RECORDS)
def test_copies_equal_the_original(record):
    assert copy.copy(record) == record
    assert copy.deepcopy(record) == record


@pytest.fixture(scope="module")
def cached_artefacts(tmp_path_factory) -> dict[str, bytes]:
    """The raw bytes of one ``alexa-crawl`` and one ``classify`` shard
    artefact of a small cached study."""
    cache = StudyCache(tmp_path_factory.mktemp("record-pickle-cache"))
    Study.run(
        StudyConfig(seed=7, n_sites=60, dns_study_days=0.25, shards=2),
        cache=cache,
    )
    found: dict[str, bytes] = {}
    for kind, key in cache.entries():
        if kind in ("alexa-crawl", "classify") and kind not in found:
            found[kind] = (cache.directory / kind / f"{key}.pkl").read_bytes()
    assert sorted(found) == ["alexa-crawl", "classify"]
    return found


def _records_in(artefact) -> list[SessionRecord]:
    if hasattr(artefact, "measurements"):
        return [
            record for measurement in artefact.measurements.values()
            for record in measurement.records
        ]
    return [
        record for classification in artefact.classifications.values()
        for record in classification.records
    ]


@pytest.mark.parametrize("kind", ["alexa-crawl", "classify"])
def test_artefact_pickling_never_calls_fields(kind, cached_artefacts,
                                              monkeypatch):
    calls = []
    real_fields = dataclasses.fields

    def counting_fields(class_or_instance):
        calls.append(type(class_or_instance).__name__)
        return real_fields(class_or_instance)

    monkeypatch.setattr(dataclasses, "fields", counting_fields)
    artefact = pickle.loads(cached_artefacts[kind])
    pickle.dumps(artefact, protocol=pickle.HIGHEST_PROTOCOL)
    monkeypatch.undo()
    records = _records_in(artefact)
    assert records and any(record.requests for record in records)
    assert calls == []
