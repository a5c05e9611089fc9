"""Cache artefacts have the same bytes under every ``PYTHONHASHSEED``.

Sets pickle in string-hash order, so the three set fields of a
classification — ``SiteClassification.excluded_domains``,
``IssuerAttribution.domains`` and ``AttributionIndex.ip_as_domains`` —
pickle as sorted lists, and the world index holds no sets at all.  The
older state, which held the sets themselves, still loads.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import subprocess
import sys
from pathlib import Path

from repro.core.attribution import AttributionIndex, IssuerAttribution
from repro.core.classifier import SiteClassification
from repro.store import KNOWN_KINDS

REPO_ROOT = Path(__file__).resolve().parent.parent.parent

_STUDY = (
    "import sys\n"
    "from repro.analysis.study import Study, StudyConfig\n"
    "from repro.store import StudyCache\n"
    "Study.run(StudyConfig(seed=7, n_sites=40, shards=2,"
    " dns_study_days=0.25), cache=StudyCache(sys.argv[1]))\n"
)


def _artefact_digests(hash_seed: str, directory: Path) -> dict[str, str]:
    env = dict(os.environ)
    src = str(REPO_ROOT / "src")
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = f"{src}{os.pathsep}{existing}" if existing else src
    env["PYTHONHASHSEED"] = hash_seed
    subprocess.run(
        [sys.executable, "-c", _STUDY, str(directory)],
        check=True, env=env, cwd=REPO_ROOT, timeout=300,
    )
    return {
        str(path.relative_to(directory)):
            hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(directory.glob("*/*.pkl"))
    }


def test_artefacts_are_byte_identical_across_hash_seeds(tmp_path):
    first = _artefact_digests("1", tmp_path / "seed1")
    second = _artefact_digests("2", tmp_path / "seed2")
    assert {name.split("/")[0] for name in first} == set(KNOWN_KINDS)
    assert first == second


def _set_states(monkeypatch) -> None:
    """Pickle the three classes the old way: their sets as sets."""
    for cls in (SiteClassification, IssuerAttribution, AttributionIndex):
        monkeypatch.setattr(cls, "__getstate__", object.__getstate__)


def test_old_set_states_still_load(monkeypatch, small_study):
    dataset = small_study.datasets["alexa"]
    assert any(
        issuer.domains for issuer in dataset.attribution.all_issuers.values()
    )
    assert dataset.attribution.ip_as_domains
    with monkeypatch.context() as patched:
        _set_states(patched)
        old = pickle.dumps(dataset, pickle.HIGHEST_PROTOCOL)
    new = pickle.dumps(dataset, pickle.HIGHEST_PROTOCOL)
    assert old != new
    for blob in (old, new):
        loaded = pickle.loads(blob)
        assert loaded == dataset
        assert isinstance(loaded.attribution.ip_as_domains["x"], set)
        for classification in loaded.classifications.values():
            assert isinstance(classification.excluded_domains, set)
        for issuer in loaded.attribution.all_issuers.values():
            assert isinstance(issuer.domains, set)


def test_site_classification_round_trips_excluded_domains():
    site = SiteClassification(
        site="a.com", total_connections=2, h2_connections=2,
        excluded_domains={"c.a.com", "b.a.com"},
    )
    state = site.__getstate__()
    assert state["excluded_domains"] == ["b.a.com", "c.a.com"]
    assert site.excluded_domains == {"c.a.com", "b.a.com"}
    assert pickle.loads(pickle.dumps(site)) == site
