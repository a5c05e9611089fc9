"""The collection guard in ``tests/conftest.py``.

Two test files with one basename abort a whole pytest run with
``import file mismatch``; the conftest refuses to start instead and
names every clash.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import pytest

_CONFTEST = Path(__file__).resolve().parent / "conftest.py"


@pytest.fixture()
def conftest_module():
    spec = importlib.util.spec_from_file_location(
        "conftest_under_test", _CONFTEST
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules["conftest_under_test"] = module
    spec.loader.exec_module(module)
    yield module
    sys.modules.pop("conftest_under_test", None)


def _plant(root: Path, *names: str) -> None:
    for name in names:
        path = root / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text("")


def test_finds_each_clashing_basename(conftest_module, tmp_path):
    _plant(
        tmp_path, "a/test_keys.py", "b/test_keys.py", "b/c/test_keys.py",
        "a/test_one.py", "b/test_two.py",
    )
    assert conftest_module.duplicate_test_basenames(tmp_path) == {
        "test_keys.py": [
            Path("a/test_keys.py"), Path("b/c/test_keys.py"),
            Path("b/test_keys.py"),
        ],
    }


def test_ignores_files_that_are_not_tests(conftest_module, tmp_path):
    _plant(
        tmp_path, "a/conftest.py", "b/conftest.py", "a/helpers.py",
        "b/helpers.py", "a/test_one.py",
    )
    assert conftest_module.duplicate_test_basenames(tmp_path) == {}


def test_the_suite_has_no_clash(conftest_module):
    assert conftest_module.duplicate_test_basenames(_CONFTEST.parent) == {}


def test_session_start_names_every_clash(conftest_module, tmp_path,
                                         monkeypatch):
    _plant(tmp_path, "a/test_x.py", "b/test_x.py", "a/test_y.py",
           "b/test_y.py", "a/test_z.py")
    monkeypatch.setattr(conftest_module, "TESTS_DIR", tmp_path)
    with pytest.raises(pytest.UsageError) as raised:
        conftest_module.pytest_sessionstart(None)
    message = str(raised.value)
    for planted in ("a/test_x.py", "b/test_x.py", "a/test_y.py",
                    "b/test_y.py"):
        assert planted in message
    assert "test_z.py" not in message
