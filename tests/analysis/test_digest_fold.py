"""Property tests for the mergeable digest fold.

The shard-and-fold digest only works if the fold is a true monoid
action over disjoint site partitions: merging must be associative and
order-insensitive, and the folded digest must depend only on the union
of the per-site chunks — never on how the sites were partitioned into
parts.  Hypothesis drives those laws over arbitrary synthetic chunk
tables; real-study byte-identity is pinned separately by the golden
suite.
"""

from __future__ import annotations

from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import digest
from repro.analysis.digest import (
    DigestPart,
    fold_study_digest,
    merge_digest_parts,
)

_SITES = tuple(f"site{index:03d}.com" for index in range(12))
_DATASETS = ("har-actual", "har-endless", "alexa", "alexa-nofetch")

#: A synthetic chunk table: dataset key -> {site: content chunk}.
_chunk_tables = st.dictionaries(
    st.sampled_from(_DATASETS),
    st.dictionaries(
        st.sampled_from(_SITES),
        st.binary(min_size=1, max_size=16),
        max_size=len(_SITES),
    ),
    min_size=1,
    max_size=len(_DATASETS),
)


def _header(key: str) -> bytes:
    return repr((key, "model")).encode()


def _whole_part(table: dict[str, dict[str, bytes]]) -> DigestPart:
    return DigestPart({
        key: (_header(key), dict(chunks)) for key, chunks in table.items()
    })


def _partition(table, assignment, n_parts: int) -> list[DigestPart]:
    """Split a chunk table into parts by a per-site shard assignment."""
    buckets: list[dict] = [{} for _ in range(n_parts)]
    for key, chunks in table.items():
        for bucket in buckets:
            bucket.setdefault(key, (_header(key), {}))
        for site, chunk in chunks.items():
            bucket = buckets[assignment(site) % n_parts]
            bucket[key][1][site] = chunk
    return [DigestPart(bucket) for bucket in buckets]


class TestFoldLaws:
    @given(table=_chunk_tables, n_parts=st.integers(1, 7), salt=st.integers())
    @settings(max_examples=60, deadline=None)
    def test_fold_is_partition_invariant(self, table, n_parts, salt):
        """Any disjoint partition folds to the monolithic digest."""
        whole = fold_study_digest([_whole_part(table)])
        parts = _partition(
            table, lambda site: hash((salt, site)), n_parts
        )
        assert fold_study_digest(parts) == whole

    @given(table=_chunk_tables, n_parts=st.integers(2, 5),
           permutation_seed=st.integers())
    @settings(max_examples=60, deadline=None)
    def test_fold_is_order_insensitive(self, table, n_parts,
                                       permutation_seed):
        import random

        parts = _partition(table, hash, n_parts)
        shuffled = list(parts)
        random.Random(permutation_seed).shuffle(shuffled)
        assert fold_study_digest(shuffled) == fold_study_digest(parts)

    @given(table=_chunk_tables)
    @settings(max_examples=40, deadline=None)
    def test_merge_is_associative(self, table):
        a, b, c = _partition(table, hash, 3)
        left = a.merge(b).merge(c)
        right = a.merge(b.merge(c))
        assert fold_study_digest([left]) == fold_study_digest([right])
        assert left.datasets.keys() == right.datasets.keys()

    @given(table=_chunk_tables)
    @settings(max_examples=40, deadline=None)
    def test_empty_part_is_identity(self, table):
        part = _whole_part(table)
        assert fold_study_digest([DigestPart(), part]) == (
            fold_study_digest([part])
        )
        assert fold_study_digest([part, DigestPart()]) == (
            fold_study_digest([part])
        )

    @given(table=_chunk_tables, mutation=st.binary(min_size=1, max_size=16))
    @settings(max_examples=40, deadline=None)
    def test_any_chunk_change_moves_the_digest(self, table, mutation):
        key = sorted(table)[0]
        chunks = table[key]
        site = sorted(chunks)[0] if chunks else _SITES[0]
        if chunks.get(site) == mutation:
            mutation = mutation + b"x"
        mutated = {
            k: dict(c) if k != key else {**c, site: mutation}
            for k, c in table.items()
        }
        assert fold_study_digest([_whole_part(mutated)]) != (
            fold_study_digest([_whole_part(table)])
        )


class TestMergeErrors:
    def test_conflicting_site_chunks_raise(self):
        a = DigestPart({"d": (_header("d"), {"s.com": b"one"})})
        b = DigestPart({"d": (_header("d"), {"s.com": b"two"})})
        with pytest.raises(ValueError, match="not disjoint"):
            a.merge(b)

    def test_same_site_same_chunk_merges(self):
        a = DigestPart({"d": (_header("d"), {"s.com": b"one"})})
        assert fold_study_digest([a, a]) == fold_study_digest([a])

    def test_header_mismatch_raises(self):
        a = DigestPart({"d": (b"header-one", {})})
        b = DigestPart({"d": (b"header-two", {})})
        with pytest.raises(ValueError, match="identity"):
            merge_digest_parts([a, b])


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
