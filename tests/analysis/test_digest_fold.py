"""Laws of the study digest.

``study_digest`` is one pass over the study's datasets in sorted key
order and each dataset's sites in sorted site order, so the digest
depends on what the study holds, never on the order it was built in,
and any change to a held record moves it.  Each classification object
is rendered once per call.  Real-study byte identity across executors
and shard counts is pinned separately by the golden and differential
suites.
"""

from __future__ import annotations

import copy
import dataclasses
from pathlib import Path

from repro.analysis import digest


class TestDigestLaws:
    def test_insertion_order_does_not_move_the_digest(self, small_study):
        reversed_study = copy.copy(small_study)
        reversed_study.datasets = {
            key: dataclasses.replace(
                dataset,
                classifications=dict(
                    reversed(list(dataset.classifications.items()))
                ),
            )
            for key, dataset in reversed(list(small_study.datasets.items()))
        }
        assert list(reversed_study.datasets) != list(small_study.datasets)
        assert digest.study_digest(reversed_study) == (
            digest.study_digest(small_study)
        )

    def test_one_field_change_moves_the_digest(self, small_study):
        key = sorted(small_study.datasets)[0]
        dataset = small_study.datasets[key]
        site = next(
            site for site in sorted(dataset.classifications)
            if dataset.classifications[site].records
        )
        classification = dataset.classifications[site]
        record = classification.records[0]
        mutated_site = dataclasses.replace(
            classification,
            records=[
                dataclasses.replace(record, port=record.port + 1),
                *classification.records[1:],
            ],
        )
        mutated = copy.copy(small_study)
        mutated.datasets = {
            **small_study.datasets,
            key: dataclasses.replace(
                dataset,
                classifications={
                    **dataset.classifications, site: mutated_site,
                },
            ),
        }
        assert digest.study_digest(mutated) != (
            digest.study_digest(small_study)
        )


class TestChunkRendering:
    """Each classification object is rendered once per digest.

    The overlap datasets hold the very classification objects of the
    datasets they subset; their chunks are reused, never re-rendered,
    while every digest still renders what the study holds now (no
    chunk outlives the call that made it).
    """

    @staticmethod
    def _count_chunks(monkeypatch) -> list:
        calls = []
        render = digest._site_chunk

        def counted(classification):
            calls.append(classification)
            return render(classification)

        monkeypatch.setattr(digest, "_site_chunk", counted)
        return calls

    def test_one_render_per_distinct_object(self, small_study, monkeypatch):
        calls = self._count_chunks(monkeypatch)
        digest.study_digest(small_study)
        held = [
            classification
            for dataset in small_study.datasets.values()
            for classification in dataset.classifications.values()
        ]
        assert len(held) == 605
        assert len(calls) == len({id(item) for item in held}) == 513
        digest.study_digest(small_study)
        assert len(calls) == 2 * 513

    def test_golden_digest_holds(self, golden_study, monkeypatch):
        calls = self._count_chunks(monkeypatch)
        pinned = (
            Path(__file__).resolve().parent.parent / "golden" / "digest.txt"
        ).read_text().strip()
        assert digest.study_digest(golden_study) == pinned
        assert len(calls) == len({
            id(classification)
            for dataset in golden_study.datasets.values()
            for classification in dataset.classifications.values()
        })
