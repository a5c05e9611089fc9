"""Run one workload of the end-to-end benchmark at one seed.

Usage (from the repository root)::

    python3 e2ebench/run.py --workload stress-serial --seed 7 \\
        --seconds 25 --trace 0

Workloads (closed loops; see ``BENCHMARK.json`` for why each exists):

* ``stress-serial``  — full studies of 300 sites, serial, no cache,
  over a rotation of three seeds;
* ``stress-sharded`` — the same studies with 4 shards on a 2-worker
  process pool, journalled into a fresh cache each time;
* ``serve-warm``     — warm studies of 200 sites served by ``repro
  serve`` to one client (see ``serve_warm.py``).

The program always runs in fresh processes started from here, with
``src`` on their path (the serve-warm client runs in this process).
Every timed loop runs the calibration kernel of ``common.py`` before
each operation and after the last, and every end-to-end time is scaled
to the reference host speed it defines; the raw wall times are printed
as comments and kept in the result record.

Untraced runs (``--trace 0``) report the end-to-end metrics; traced
runs (``--trace 1``) first repeat the untraced measurement, then
measure again with every layer wrapped in spans, and report per-layer
metrics per operation plus the tracing overhead.

Every operation's output is checked: stress digests must agree across
studies of a seed, across workloads and with the digest pinned for
seed 7 at 1200 sites; served
responses must be cache hits with their cold-fill digest; traced work
counts must repeat exactly.  Each metric is printed as ``name value
unit``; the last line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  The full record goes to
``.e2ebench/results/``.  The exit code is 0 when every check passed,
1 when one failed, 2 on bad usage or a checkout without the program.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

from common import (
    BENCH_DIR,
    BenchError,
    END_TO_END,
    EXACT_COUNTS,
    PER_LAYER,
    ROOT,
    SCHEMA,
    STATE_DIR,
    WORKLOADS,
    finite,
    kernel_seconds,
    ledger_check,
    median,
    program_fingerprint,
    scaled,
    tail,
    write_json_atomic,
)

#: The stress digest pinned by ``repro bench`` at seed 7, 1200 sites.
PINNED_DIGESTS = {(7, 1200): "d557a4849bcca87dc534e0da1d22fc35"}

DEFAULT_SITES = {"stress-serial": 300, "stress-sharded": 300,
                 "serve-warm": 200}

#: Longest a workload process may take before it counts as hung.
CHILD_TIMEOUT_S = 170.0


def child_env(tmp: Path) -> dict:
    """The environment of every process the benchmark starts."""
    env = dict(os.environ)
    parts = [str(ROOT / "src")]
    if env.get("PYTHONPATH"):
        parts.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(parts)
    env["TMPDIR"] = str(tmp)
    return env


def _stress_process(args, env: dict, work_dir: Path, *, trace: bool,
                    setup_only: bool = False,
                    spans: Path | None = None) -> tuple[float, dict | None]:
    """Start ``stress.py``; return its set-up time and its result."""
    command = [
        sys.executable, str(BENCH_DIR / "stress.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--sites", str(args.sites), "--seconds", str(args.seconds),
        "--trace", str(int(trace)), "--work-dir", str(work_dir),
    ]
    if setup_only:
        command.append("--setup-only")
    if spans is not None:
        command += ["--spans", str(spans)]
    started = time.perf_counter()
    process = subprocess.Popen(
        command, env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
        text=True,
    )
    kernels: list[float] = []
    output = ""
    try:
        ready = process.stdout.readline()
        ready_s = time.perf_counter() - started
        # Run the kernel whenever the study process asks; the next other
        # line is its result.
        for line in process.stdout:
            if line.strip() != "KERNEL":
                output = line
                break
            kernels.append(kernel_seconds())
            process.stdin.write("\n")
            process.stdin.flush()
        rc = process.wait(timeout=CHILD_TIMEOUT_S)
    finally:
        if process.poll() is None:
            process.kill()
            process.wait()
        process.stdin.close()
        process.stdout.close()
    if ready.strip() != "READY" or rc != 0:
        raise BenchError(f"stress process failed (exit {rc})")
    if setup_only:
        return ready_s, None
    result = json.loads(output)
    result["kernels_s"] = kernels
    return ready_s, result


def _latency_metrics(latencies: list[float], count: int,
                     duration_s: float) -> tuple[dict, dict]:
    """Latency and rate metrics, plus the sample context of the tail."""
    tail_value, percentile, beyond = tail(latencies)
    metrics = {
        "request_p50_s": median(latencies),
        "request_tail_s": tail_value,
        "requests_per_s": count / duration_s,
    }
    context = {
        "samples": len(latencies),
        "tail_percentile": percentile,
        "tail_samples_beyond": beyond,
    }
    return metrics, context


def _per_op(totals: dict, ops: int) -> dict:
    return {
        key: tuple(v / ops for v in value) if isinstance(value, (list, tuple))
        else value / ops
        for key, value in totals.items()
    }


def _per_layer(counts: dict, times: dict, stages: dict, extra: dict) -> dict:
    """Layer metrics from per-operation counts, span times and stages."""
    metrics = {}
    for name in PER_LAYER:
        if name in extra:
            metrics[name] = extra[name]
        elif name.startswith("stage."):
            metrics[name] = stages.get(name[len("stage."):-len("_s")], 0.0)
        elif name.endswith(".self_s"):
            metrics[name] = times.get(name[:-len(".self_s")], (0.0, 0.0))[0]
        elif name.endswith(".wall_s"):
            metrics[name] = times.get(name[:-len(".wall_s")], (0.0, 0.0))[1]
        else:
            metrics[name] = float(counts.get(name, 0))
    return metrics


def _check_studies(args, ops: list[dict]) -> tuple[int, list[str]]:
    """Failed studies and why: errors, quarantines, digest mismatches.

    Each seed's expected digest is the pinned one where known, else the
    first study's; the ledger then holds both stress workloads to it.
    """
    errors = [op["error"] for op in ops if "error" in op]
    expected = {}
    for seed in sorted({op["seed"] for op in ops}):
        digests = [op["digest"] for op in ops
                   if op["seed"] == seed and "error" not in op]
        if not digests:
            continue
        expected[seed] = PINNED_DIGESTS.get((seed, args.sites), digests[0])
        problem = ledger_check(
            f"{args.fingerprint}/digest-n{args.sites}-seed{seed}",
            {"digest": expected[seed]}, args.state_dir,
        )
        if problem is not None:
            errors.append(problem)
            return len(ops), errors
    failed = len(errors)
    for op in ops:
        if "error" in op:
            continue
        if op["digest"] != expected[op["seed"]]:
            failed += 1
            errors.append(f"seed {op['seed']}: digest {op['digest']} "
                          f"!= expected {expected[op['seed']]}")
        elif not op["complete"]:
            failed += 1
            errors.append(f"study {op['digest']} quarantined shards")
    return failed, errors


def _scaled_studies(result: dict) -> list[float | None]:
    """Scaled wall times of a stress process's studies, warm-up first.

    A failed study's is ``None``.
    """
    ops = result["ops"]
    walls = scaled([op.get("wall_s", 0.0) for op in ops], result["kernels_s"])
    return [None if "error" in op else wall for wall, op in zip(walls, ops)]


def run_stress(args, env: dict, work_dir: Path, spans: Path) -> dict:
    # Set-up is the process boot, timed three times, plus the warm-up
    # study.  The kernel runs before each boot; the measuring process
    # asks for it right after its boot and after every study.
    boots, boot_kernels = [], []
    if not args.trace:
        for _ in range(2):
            boot_kernels.append(kernel_seconds())
            boots.append(_stress_process(
                args, env, work_dir, trace=False, setup_only=True
            )[0])
    boot_kernels.append(kernel_seconds())
    ready_s, untraced = _stress_process(args, env, work_dir, trace=False)
    boots.append(ready_s)
    boot_kernels.append(untraced["kernels_s"][0])
    traced = None
    if args.trace:
        _, traced = _stress_process(
            args, env, work_dir, trace=True, spans=spans
        )
    ops = untraced["ops"] + (traced["ops"] if traced else [])
    failed, errors = _check_studies(args, ops)
    timed = [op for op in untraced["ops"][1:] if "error" not in op]
    warmup, *rest = _scaled_studies(untraced)
    studies = [wall for wall in rest if wall is not None]
    outcome = {
        "attempted": len(ops),
        "failed": failed,
        "errors": errors,
        "digests": sorted({op["digest"] for op in ops if "digest" in op}),
        "walls_s": [op["wall_s"] for op in untraced["ops"] if "error" not in op],
        "kernels_s": untraced["kernels_s"],
        "boots_s": boots,
        "boot_kernels_s": boot_kernels,
    }
    if warmup is None or not studies:
        return outcome
    # A study is one request; the loop does nothing else that is timed.
    metrics, context = _latency_metrics(studies, len(studies), sum(studies))
    metrics["sites_per_s"] = args.sites / metrics["request_p50_s"]
    metrics["setup_s"] = median(scaled(boots, boot_kernels)) + warmup
    metrics["peak_rss_mb"] = untraced["peak_rss_kb"] / 1024
    context["wall_p50_s"] = median([op["wall_s"] for op in timed])
    context["setup_wall_s"] = median(boots) + untraced["ops"][0]["wall_s"]
    context["kernel_p50_s"] = median(untraced["kernels_s"])
    context["first_event_p50_s"] = median(
        [op["first_event_s"] for op in timed]
    )
    outcome["metrics"] = metrics
    outcome["context"] = context
    traced_ops = [
        op for op in (traced or {}).get("ops", [])[1:] if "error" not in op
    ]
    if not traced_ops:
        return outcome

    exact: dict[int, dict] = {}
    for op in traced_ops:
        op_counts = {name: op["counts"].get(name, 0) for name in EXACT_COUNTS}
        if exact.setdefault(op["seed"], op_counts) != op_counts:
            errors.append(f"traced studies of seed {op['seed']} did "
                          f"different work")
            outcome["failed"] += 1
    counts: dict[str, int] = {}
    stages: dict[str, float] = {}
    for op in traced_ops:
        for name, count in op["counts"].items():
            counts[name] = counts.get(name, 0) + count
        for stage, seconds in op["stages"].items():
            stages[stage] = stages.get(stage, 0.0) + seconds
    traced_p50 = median(
        [wall for wall in _scaled_studies(traced)[1:] if wall is not None]
    )
    outcome["per_layer"] = _per_layer(
        _per_op(counts, len(traced_ops)),
        _per_op(traced["times"], len(traced_ops)),
        _per_op(stages, len(traced_ops)),
        {
            "serve.http_s": 0.0,
            "serve.rejected": 0.0,
            "first_event_p50_s": median(
                [op["first_event_s"] for op in traced_ops]
            ),
            "trace.overhead_ratio": traced_p50 / metrics["request_p50_s"],
        },
    )
    outcome["spans"] = traced["spans"]
    return outcome


def run_serve(args, env: dict, work_dir: Path, spans: Path) -> dict:
    import serve_warm

    raw = serve_warm.run(
        seed=args.seed, seconds=args.seconds, trace=bool(args.trace),
        sites=args.sites, work_dir=work_dir, env=env, spans=spans,
    )
    loop = raw["loop"]
    outcome = {
        "attempted": loop["attempted"],
        "failed": loop["failed"],
        "errors": raw["errors"],
        "digests": raw["digests"],
        "boots_s": raw["boots_s"],
        "boot_kernels_s": raw["boot_kernels_s"],
        "fill_s": raw["fill_s"],
        "fill_kernels_s": raw["fill_kernels_s"],
        "latencies_s": loop["latencies_s"],
        "walls_s": loop["walls_s"],
        "kernels_s": loop["kernels_s"],
        "first_events_s": loop["first_events_s"],
    }
    if not loop["latencies_s"]:
        raise BenchError("the timed loop completed no request")
    # One client: the rate is one over the mean latency.
    metrics, context = _latency_metrics(
        loop["latencies_s"], len(loop["latencies_s"]),
        sum(loop["latencies_s"]),
    )
    # Sites' worth of study results delivered per second.
    metrics["sites_per_s"] = args.sites * metrics["requests_per_s"]
    metrics["setup_s"] = (
        median(scaled(raw["boots_s"], raw["boot_kernels_s"]))
        + scaled([raw["fill_s"]], raw["fill_kernels_s"])[0]
    )
    metrics["peak_rss_mb"] = raw["peak_rss_kb"] / 1024
    context["wall_p50_s"] = median(loop["walls_s"])
    context["setup_wall_s"] = median(raw["boots_s"]) + raw["fill_s"]
    context["kernel_p50_s"] = median(loop["kernels_s"])
    if loop["first_events_s"]:
        context["first_event_p50_s"] = median(loop["first_events_s"])
    context["rejected"] = loop["rejected"]
    outcome["metrics"] = metrics
    outcome["context"] = context
    if "trace" not in raw:
        return outcome

    traced, report = raw["traced_loop"], raw["trace"]
    outcome["attempted"] += traced["attempted"]
    outcome["failed"] += traced["failed"]
    requests = traced["attempted"]
    server_ops = report["counts"].get("serve.run_study.calls", 0)
    if server_ops != requests:
        raise BenchError(
            f"server traced {server_ops} studies for {requests} requests"
        )
    run_study_s = report["times"].get("serve.run_study", (0.0, 0.0))[1]
    outcome["per_layer"] = _per_layer(
        _per_op(report["counts"], requests),
        _per_op(report["times"], requests),
        _per_op(traced["stages_s"], requests),
        {
            "serve.http_s": (traced["latency_total_s"] - run_study_s)
            / requests,
            "serve.rejected": traced["rejected"] / requests,
            "first_event_p50_s": median(traced["first_events_s"])
            if traced["first_events_s"] else 0.0,
            "trace.overhead_ratio": median(traced["latencies_s"])
            / metrics["request_p50_s"],
        },
    )
    outcome["spans"] = report["spans"]
    return outcome


def _usage_error(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter,
    )
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=25.0,
                        help="length of the timed closed loop")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--sites", type=int, default=None,
                        help="study size (default: the workload's own)")
    parser.add_argument("--state-dir", type=Path, default=STATE_DIR,
                        help="where results, ledgers, traces and scratch "
                             "files go (default: .e2ebench)")
    args = parser.parse_args(argv)
    if args.sites is None:
        args.sites = DEFAULT_SITES[args.workload]
    if args.seconds <= 0 or args.sites <= 0:
        return _usage_error("--seconds and --sites must be positive")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        return _usage_error(
            f"no program to measure: {ROOT / 'src' / 'repro'} is missing"
        )

    args.state_dir = args.state_dir.resolve()
    args.fingerprint = program_fingerprint()
    work_dir = args.state_dir / "work" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work_dir, ignore_errors=True)
    (work_dir / "tmp").mkdir(parents=True)
    env = child_env(work_dir / "tmp")
    label = f"{args.workload}-n{args.sites}-seed{args.seed}"
    spans = args.state_dir / "traces" / f"{label}.spans"
    runner = run_serve if args.workload == "serve-warm" else run_stress
    try:
        outcome = runner(args, env, work_dir, spans)
    except BenchError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    if "per_layer" in outcome:
        problem = ledger_check(
            f"{args.fingerprint}/counts-{label}",
            {name: outcome["per_layer"][name] for name in EXACT_COUNTS},
            args.state_dir,
        )
        if problem is not None:
            outcome["errors"].append(problem)
            outcome["failed"] += 1
    correct = not outcome["errors"] and outcome["failed"] == 0
    if args.trace:
        table, units = outcome.get("per_layer"), PER_LAYER
    else:
        table, units = outcome.get("metrics"), END_TO_END
    if table is None:
        for problem in outcome["errors"]:
            print(f"error: {problem}", file=sys.stderr)
        return 1
    metrics = {
        name: {"value": finite(table[name]), "unit": unit}
        for name, unit in units.items()
    }
    attempted = max(1, outcome["attempted"])
    record = {
        "schema": SCHEMA,
        "workload": args.workload,
        "seed": args.seed,
        "sites": args.sites,
        "seconds": args.seconds,
        "trace": args.trace,
        "correct": correct,
        "attempted": attempted,
        "failed": outcome["failed"],
        "error_ratio": outcome["failed"] / attempted,
        "metrics": metrics,
        "detail": {
            key: value for key, value in outcome.items()
            if key not in ("metrics", "per_layer", "attempted", "failed")
        },
    }
    write_json_atomic(
        args.state_dir / "results" / f"{label}-trace{args.trace}.json", record
    )
    for problem in outcome["errors"]:
        print(f"error: {problem}", file=sys.stderr)
    for name, metric in metrics.items():
        print(f"{name} {metric['value']:.6g} {metric['unit']}")
    print(f"error_ratio {record['error_ratio']:.6g} "
          f"({outcome['failed']}/{attempted})")
    for key, value in outcome.get("context", {}).items():
        print(f"# {key} {value:.6g}" if isinstance(value, float)
              else f"# {key} {value}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": outcome["failed"],
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
