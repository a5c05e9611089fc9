"""One stress-workload process: full studies back to back.

Started by ``run.py`` in a fresh interpreter with ``src`` on the path.
After its set-up (imports, config validation) it prints ``READY``; the
parent timestamps that line, which is how set-up time is measured from
process start.  With ``--setup-only`` it exits there.  Otherwise it
runs one warm-up study, then studies in a closed loop over a rotation
of three configs (seeds ``seed .. seed + 2``), ending at the first
rotation boundary after ``--seconds``, and prints one JSON line
describing every study.  Before the warm-up and after every
study it prints ``KERNEL`` and waits for a line on stdin, while the
parent runs the calibration kernel.

Each study starts cold: the world cache is cleared, the previous Study
is released and garbage is collected first, and under
``stress-sharded`` every study journals into a fresh cache directory.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import shutil
import sys
import time
from pathlib import Path

from repro.analysis import digest as digest_module
from repro.analysis.study import Study, StudyConfig
from repro.runtime import StageTimings, clear_ecosystem_cache
from repro.store import StudyCache

from common import stop_here
from tracer import Tracer

#: Per-workload study settings on top of seed and size.
SETTINGS = {
    "stress-serial": {},
    "stress-sharded": {"shards": 4, "executor": "process", "parallelism": 2},
}

#: Configs per rotation: seeds ``seed .. seed + 2``.  Each run's median
#: then spans three inputs, which narrows how far it moves with the seed.
N_CONFIGS = 3

#: Layer groups traced per workload.  Under ``stress-sharded`` the
#: protocol layers run in forked pool workers, so only the study
#: process's own layers are traced; ``stress-serial`` measures the
#: protocol layers.
TRACED_GROUPS = {
    "stress-serial": ("protocol", "pipeline"),
    "stress-sharded": ("pipeline",),
}


def _peak_rss_kb() -> int:
    """Largest RSS of this process and of its reaped pool workers."""
    return max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )


def _one_study(config: StudyConfig, cache_dir: Path | None) -> dict:
    """Run, time and digest one study; the Study is released on return."""
    clear_ecosystem_cache()
    gc.collect()
    cache = StudyCache(cache_dir) if cache_dir is not None else None
    # The pipeline's first progress event: the observer fires as each
    # stage starts (what the service streams as ``stage_start``).
    events: list[float] = []
    timings = StageTimings(
        observer=lambda name, items: events or events.append(time.perf_counter())
    )
    started = time.perf_counter()
    try:
        study = Study.run(config, timings=timings, cache=cache)
        wall = time.perf_counter() - started
        digest = digest_module.study_digest(study)
        coverage = study.coverage
    except Exception as error:  # counted as a failed operation
        return {"seed": config.seed,
                "error": f"{type(error).__name__}: {error}"}
    finally:
        if cache_dir is not None:
            shutil.rmtree(cache_dir, ignore_errors=True)
    complete = coverage is None or coverage.complete
    del study
    gc.collect()
    return {
        "seed": config.seed,
        "wall_s": wall,
        "first_event_s": events[0] - started,
        "digest": digest,
        "complete": complete,
        "stages": {
            stage.name: timings.seconds_for(stage.name)
            for stage in timings.stages
        },
    }


def await_kernel() -> None:
    """Wait while the parent runs the calibration kernel.

    The kernel runs in the parent, whose heap stays small, so its time
    depends on the host alone and not on what this process holds.
    """
    print("KERNEL", flush=True)
    if not sys.stdin.readline():
        raise SystemExit("the parent closed the kernel pipe")


def _cache_dir(args, sharded: bool, index: int) -> Path | None:
    return args.work_dir / f"cache-{index}" if sharded else None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=sorted(SETTINGS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--sites", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work-dir", type=Path, required=True)
    parser.add_argument("--spans", type=Path, default=None)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    configs = [
        StudyConfig(
            seed=args.seed + offset, n_sites=args.sites, dns_study_days=0.25,
            **SETTINGS[args.workload],
        )
        for offset in range(N_CONFIGS)
    ]
    for config in configs:
        config.validate()
    sharded = args.workload == "stress-sharded"
    print("READY", flush=True)
    if args.setup_only:
        return 0

    # The first study warms the process's memo caches; it is checked,
    # untraced, and counted as set-up.
    await_kernel()
    ops = [_one_study(configs[0], cache_dir=_cache_dir(args, sharded, 0))]
    await_kernel()
    tracer = Tracer() if args.trace else None
    if tracer is not None:
        tracer.install(TRACED_GROUPS[args.workload])
    begin = time.perf_counter()
    try:
        while (len(ops) == 1 or (len(ops) - 1) % N_CONFIGS
               or not stop_here(begin, args.seconds)):
            config = configs[(len(ops) - 1) % N_CONFIGS]
            cache_dir = _cache_dir(args, sharded, len(ops))
            before = tracer.counts() if tracer is not None else {}
            if tracer is not None:
                op = tracer.operation(lambda: _one_study(config, cache_dir))
                after = tracer.counts()
                op["counts"] = {
                    key: after[key] - before.get(key, 0) for key in after
                }
            else:
                op = _one_study(config, cache_dir)
            ops.append(op)
            await_kernel()
    finally:
        if tracer is not None:
            tracer.restore()
    result = {"ops": ops, "peak_rss_kb": _peak_rss_kb()}
    if tracer is not None:
        result["times"] = tracer.times()
        result["spans"] = tracer.span_count()
        if args.spans is not None:
            tracer.write_spans(args.spans)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
