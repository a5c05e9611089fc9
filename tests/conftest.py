"""Shared fixtures.

Expensive artefacts (the ecosystem, a full small study) are
session-scoped: they are deterministic, read-only for tests, and take a
few seconds to build.
"""

from __future__ import annotations

import importlib.util
import random
import sys
from pathlib import Path

import pytest

from repro.analysis.study import Study, StudyConfig
from repro.browser.browser import BrowserConfig, ChromiumBrowser
from repro.util.clock import SimClock
from repro.web.ecosystem import Ecosystem, EcosystemConfig

TESTS_DIR = Path(__file__).resolve().parent
GOLDEN_DIR = TESTS_DIR / "golden"


def duplicate_test_basenames(root: Path) -> dict[str, list[Path]]:
    """Every ``test_*.py`` basename found more than once under ``root``,
    with its paths relative to ``root``."""
    found: dict[str, list[Path]] = {}
    for path in sorted(root.rglob("test_*.py")):
        found.setdefault(path.name, []).append(path.relative_to(root))
    return {name: paths for name, paths in found.items() if len(paths) > 1}


def pytest_sessionstart(session) -> None:
    """Refuse to start when two test files under ``tests/`` share a
    basename.

    ``tests/`` is not a package, so pytest imports every test file as a
    top-level module named after its basename; a second file of the same
    name aborts the whole collection with ``import file mismatch``.
    """
    duplicates = duplicate_test_basenames(TESTS_DIR)
    if duplicates:
        raise pytest.UsageError(
            "test file basenames must be unique under tests/: " + "; ".join(
                f"{name} in " + ", ".join(str(path) for path in paths)
                for name, paths in duplicates.items()
            )
        )


@pytest.fixture(scope="session")
def small_ecosystem() -> Ecosystem:
    """A compact but fully wired world (120 sites)."""
    return Ecosystem.generate(EcosystemConfig(seed=7, n_sites=120))


@pytest.fixture(scope="session")
def small_study() -> Study:
    """A complete study over a 200-site universe."""
    return Study.run(StudyConfig(seed=7, n_sites=200, dns_study_days=0.25))


@pytest.fixture(scope="session")
def golden_regen():
    """The tests/golden/regenerate.py module (tests are not a package)."""
    spec = importlib.util.spec_from_file_location(
        "golden_regenerate", GOLDEN_DIR / "regenerate.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules.setdefault("golden_regenerate", module)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="session")
def golden_study(golden_regen) -> Study:
    """The pinned-config study (seed=7, n=120), shared by every golden
    assertion so the suite builds it exactly once."""
    return Study.run(golden_regen.golden_config())


@pytest.fixture(scope="session")
def faulted_golden_study(golden_regen) -> Study:
    """The canonical faulted study (same scale, chaos profile)."""
    return Study.run(golden_regen.faulted_config())


@pytest.fixture(scope="session")
def h3_golden_study(golden_regen) -> Study:
    """The canonical h3-rollout study (same scale, broad profile)."""
    return Study.run(golden_regen.h3_config())


@pytest.fixture(scope="session")
def longitudinal_golden_result(golden_regen):
    """The pinned longitudinal sequence (mixed policy, epochs 0..2).

    Session-scoped for the same reason as the golden studies: the
    golden diff and the evolve differential suite both consume it, and
    it costs three n=120 pipelines.
    """
    from repro.evolve import run_longitudinal

    return run_longitudinal(
        golden_regen.golden_config(),
        policy=golden_regen.LONGITUDINAL_POLICY,
        epochs=golden_regen.LONGITUDINAL_EPOCHS,
    )


@pytest.fixture()
def browser(small_ecosystem: Ecosystem) -> ChromiumBrowser:
    """A fresh browser over the shared world (own clock/resolver)."""
    return ChromiumBrowser(
        ecosystem=small_ecosystem,
        resolver=small_ecosystem.make_resolver(),
        clock=SimClock(),
        rng=random.Random(1234),
    )


@pytest.fixture()
def browser_factory(small_ecosystem: Ecosystem):
    """Factory for browsers with custom configs over the shared world."""

    def make(config: BrowserConfig | None = None, seed: int = 1234) -> ChromiumBrowser:
        return ChromiumBrowser(
            ecosystem=small_ecosystem,
            resolver=small_ecosystem.make_resolver(),
            clock=SimClock(),
            rng=random.Random(seed),
            config=config or BrowserConfig(),
        )

    return make
