"""The study-running commands' shared flag handling.

Every command that runs studies (``study``, ``sweep``, ``resilience``,
``h3``, ``evolve``, ``perf``) turns the same flags into a config, an
executor and a cache.  Bad input exits 2 with one ``error: …`` line
before any study work, and ``--task-timeout`` reaches the executor
every study runs on.  ``bench`` and ``study``'s own flags are checked
the same way, before any study runs or any file is touched.
"""

from __future__ import annotations

import pytest

from repro.analysis.study import Study
from repro.cli import main
from repro.runtime.executor import _PoolExecutor

#: The extra flags each command needs to get past its own checks.
SCENARIO = {
    "study": [],
    "sweep": [],
    "resilience": ["--fault-profile", "flaky-dns"],
    "h3": ["--h3-profile", "broad"],
    "evolve": ["--policy", "mixed", "--epochs", "1"],
    "perf": [],
}


def _exit_code(argv: list[str]) -> int:
    """``main``'s exit code, whether it returns it or raises it."""
    try:
        return main(argv)
    except SystemExit as exit_:
        return exit_.code


def _argv(command: str, *flags: str) -> list[str]:
    return [command, "--sites", "20", *SCENARIO[command], *flags]


@pytest.mark.parametrize("command", sorted(SCENARIO))
@pytest.mark.parametrize("flags, line", [
    (("--resume",), "error: --resume requires --cache-dir"),
    (("--executor", "bogus"),
     "error: unknown executor 'bogus'; expected one of "
     "['process', 'serial', 'thread']"),
    (("--shards", "0"), "error: shards must be >= 1, got 0"),
    (("--epochs", "-1"), "error: epochs must be >= 0, got -1"),
    (("--sites", "0"), "error: n_sites must be >= 1, got 0"),
], ids=["resume-without-cache", "bad-executor", "zero-shards",
        "negative-epochs", "zero-sites"])
def test_bad_shared_flags_exit_2(capsys, command, flags, line):
    assert _exit_code(_argv(command, *flags)) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(line)
    assert captured.out == ""


@pytest.mark.parametrize("axis, line", [
    ("ha_sample_share=-0.5",
     "error: ha_sample_share must be in (0, 1], got -0.5"),
    ("alexa_share=0.3,1.5", "error: alexa_share must be in (0, 1], got 1.5"),
    ("dns_study_days=-2", "error: dns_study_days must be >= 0, got -2.0"),
], ids=["negative-ha-share", "alexa-share-above-1", "negative-dns-days"])
def test_out_of_range_grid_values_exit_2(capsys, axis, line):
    assert _exit_code(["sweep", "--sites", "40", "--seeds", "7",
                       "--grid", axis]) == 2
    captured = capsys.readouterr()
    assert captured.err == line + "\n"
    assert captured.out == ""


@pytest.mark.parametrize("argv, line", [
    (["resilience", "--sites", "20"],
     "error: resilience needs --fault-profile (e.g. flaky-dns, "
     "broken-tls, h2-churn, slow-origin, chaos)"),
    (["h3", "--sites", "20"],
     "error: h3 needs --h3-profile (e.g. cdn-first, broad, adopt-0.25)"),
    (["evolve", "--sites", "20"],
     "error: evolve needs --policy (e.g. cert-rotation, dns-churn, "
     "cdn-migration, shard-consolidation, mixed)"),
    (["audit", "--sites", "0"], "error: n_sites must be >= 1, got 0"),
    (["dnsstudy", "--sites", "0"], "error: n_sites must be >= 1, got 0"),
    (["mitigations", "--sites", "0"], "error: n_sites must be >= 1, got 0"),
    (["dnsstudy", "--days", "-1", "--sites", "30"],
     "error: dns_study_days must be >= 0, got -1.0"),
], ids=["resilience", "h3", "evolve", "audit-zero-sites",
        "dnsstudy-zero-sites", "mitigations-zero-sites",
        "dnsstudy-negative-days"])
def test_missing_scenario_exits_2(capsys, argv, line):
    assert _exit_code(argv) == 2
    assert capsys.readouterr().err == line + "\n"


TIMEOUT_COMMANDS = ["study", "sweep", "resilience", "h3", "evolve"]


@pytest.mark.parametrize("command, extra", [
    *((command, ()) for command in TIMEOUT_COMMANDS),
    # A grid over the pool size builds one executor per cell.
    ("sweep", ("--grid", "parallelism=1,2")),
], ids=[*TIMEOUT_COMMANDS, "sweep-parallelism-grid"])
def test_task_timeout_reaches_every_studys_executor(
    monkeypatch, command, extra
):
    timeouts = []
    run = Study.run

    def recording_run(cls, config=None, **kwargs):
        timeouts.append(kwargs["executor"].task_timeout)
        return run(config, **kwargs)

    monkeypatch.setattr(Study, "run", classmethod(recording_run))
    argv = _argv(command, "--executor", "thread:2", "--task-timeout", "30",
                 *extra)
    assert _exit_code(argv) == 0
    assert timeouts and set(timeouts) == {30.0}


@pytest.mark.parametrize("command, executor", [
    *((command, "thread") for command in TIMEOUT_COMMANDS),
    # Serial runs ignore the watchdog but must not swallow a bad value.
    *((command, "serial") for command in TIMEOUT_COMMANDS),
], ids=[*TIMEOUT_COMMANDS, *(f"{command}-serial"
                             for command in TIMEOUT_COMMANDS)])
def test_non_positive_task_timeout_exits_2(capsys, command, executor):
    argv = _argv(command, "--executor", executor, "--task-timeout", "-1")
    assert _exit_code(argv) == 2
    assert capsys.readouterr().err == (
        "error: task_timeout must be positive, got -1.0\n"
    )


def test_validation_builds_no_executor(monkeypatch):
    """Only the CLI's one executor is built: validating each sweep cell
    parses its executor spec and constructs nothing."""
    built = []
    init = _PoolExecutor.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("task_timeout"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(_PoolExecutor, "__init__", counting_init)
    argv = _argv("sweep", "--seeds", "7,8,9", "--executor", "thread:2",
                 "--task-timeout", "30")
    assert _exit_code(argv) == 0
    assert built == [30.0]


_SCALES = ("['golden', 'golden-pool', 'golden-sharded', 'smoke', "
           "'smoke-sharded', 'stress']")


@pytest.mark.parametrize("argv, line", [
    (["bench", "--check", "--check-scale", "nope"],
     f"error: unknown --check-scale 'nope'; pick from {_SCALES}"),
    (["bench", "--hotpath", "--repeat", "-3"],
     "error: --repeat must be >= 1, got -3"),
    (["bench", "--hotpath", "--repeat", "0"],
     "error: --repeat must be >= 1, got 0"),
    (["bench", "--pipeline-only", "--repeat", "0"],
     "error: --repeat must be >= 1, got 0"),
    (["bench", "--check", "--tolerance", "-1"],
     "error: --tolerance must be >= 0, got -1.0"),
    (["bench", "--scales", "smoke,huge"],
     f"error: unknown scales ['huge']; pick from {_SCALES}"),
    (["study", "--sites", "20", "--table", "x"],
     "error: unknown --table 'x'; expected 1-12 or 'all'"),
    (["study", "--sites", "20", "--table", "99"],
     "error: unknown --table '99'; expected 1-12 or 'all'"),
], ids=["unknown-check-scale", "negative-repeat", "zero-repeat-hotpath",
        "zero-repeat-pipeline", "negative-tolerance", "unknown-scale",
        "non-numeric-table", "out-of-range-table"])
def test_bad_command_flags_exit_2_before_any_work(
    capsys, monkeypatch, tmp_path, argv, line
):
    def no_study(cls, *args, **kwargs):
        raise AssertionError("a study ran before the flags were checked")

    monkeypatch.setattr(Study, "run", classmethod(no_study))
    monkeypatch.chdir(tmp_path)
    if argv[0] == "bench":
        argv = [*argv, "--out-dir", str(tmp_path)]
    assert _exit_code(argv) == 2
    captured = capsys.readouterr()
    assert captured.err == line + "\n"
    assert captured.out == ""
    assert list(tmp_path.iterdir()) == []
