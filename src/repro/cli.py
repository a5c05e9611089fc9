"""Command-line interface.

Usage (after ``pip install -e .``)::

    python -m repro study --sites 400 --table 1 --headline
    python -m repro study --sites 400 --table all --figure 2
    python -m repro study --sites 2000 --executor process --jobs 8 --profile
    python -m repro study --sites 400 --shards 8 --cache-dir .repro-cache
    python -m repro sweep --sites 200 --seeds 7,8,9 --grid n_sites=120,240 \\
        --cache-dir .repro-cache --profile
    python -m repro study --sites 400 --fault-profile flaky-dns --headline
    python -m repro sweep --sites 200 --grid fault_profile=none,h2-churn
    python -m repro resilience --sites 200 --fault-profile chaos
    python -m repro study --sites 400 --epochs 3 --evolution-policy dns-churn
    python -m repro sweep --sites 200 --epochs 2 --grid evolution_policy=none,mixed
    python -m repro evolve --sites 200 --policy cert-rotation --epochs 5
    python -m repro study --sites 400 --h3-profile broad --headline
    python -m repro sweep --sites 200 --grid h3_profile=none,cdn-first,broad
    python -m repro h3 --h3-profile broad --seed 7 --n-sites 120
    python -m repro audit site000004.com --sites 150
    python -m repro dnsstudy --days 2
    python -m repro mitigations --sites 200
    python -m repro perf --sites 300
    python -m repro bench --scales smoke,golden,stress
    python -m repro bench --check --check-scale smoke --tolerance 0.25

Every command is deterministic given ``--seed`` — including under
``--executor thread`` / ``--executor process``, which change only
wall-clock time (see :mod:`repro.runtime`).
"""

from __future__ import annotations

import argparse
import random
import sys

from repro.evolve.policy import POLICIES
from repro.faults.plan import FAULTS
from repro.h3.plan import H3_PROFILES
from repro.util.scenario import Registry

__all__ = ["build_parser", "main"]


def _scenario_names(registry: Registry, *, skip: tuple[str, ...] = ()) -> str:
    """A registry's scenario names for a help string, comma-joined."""
    return ", ".join(name for name in registry.names() if name not in skip)


def _add_runtime_args(parser: argparse.ArgumentParser) -> None:
    """Executor/cache knobs shared by every study-running command."""
    # SUPPRESS: only overwrite the root parser's --seed when the flag
    # is actually given after the subcommand.
    parser.add_argument(
        "--seed", type=int, default=argparse.SUPPRESS,
        help="root seed (equivalent to the pre-subcommand --seed)",
    )
    parser.add_argument(
        "--executor", default="serial",
        help="execution substrate: serial, thread or process, "
             "optionally with workers (e.g. process:8)",
    )
    parser.add_argument(
        "--jobs", type=int, default=None,
        help="worker count for thread/process executors",
    )
    parser.add_argument(
        "--cache-dir", default=None,
        help="content-addressed stage cache directory; identical crawl "
             "and classification configs load from disk instead of "
             "recomputing (see repro.store)",
    )
    parser.add_argument(
        "--shards", type=int, default=1,
        help="partition each crawl into this many deterministic site "
             "shards, cached and recomputed independently (output is "
             "shard-count-invariant; see repro.crawl.shards)",
    )
    parser.add_argument(
        "--fault-profile", default="none",
        help="named fault scenario injected into every crawl visit: "
             f"{_scenario_names(FAULTS)} (see repro.faults)",
    )
    parser.add_argument(
        "--resume", action="store_true",
        help="replay the run journal of an interrupted identical run "
             "(requires --cache-dir) and skip its finished shards "
             "(see repro.runlog)",
    )
    parser.add_argument(
        "--strict", action="store_true",
        help="fail fast on the first shard failure instead of "
             "retrying and quarantining (disables graceful "
             "degradation)",
    )
    parser.add_argument(
        "--task-timeout", type=float, default=None, metavar="SECONDS",
        help="watchdog window for pool executors: abort a crawl stage "
             "that completes no new work for this many seconds "
             "(default: wait forever)",
    )
    parser.add_argument(
        "--epochs", type=int, default=0,
        help="advance the world through this many churn epochs of "
             "--evolution-policy before measuring (see repro.evolve)",
    )
    parser.add_argument(
        "--evolution-policy", default="none",
        help="named ecosystem-churn policy evolving the world per "
             f"epoch: {_scenario_names(POLICIES)} (see repro.evolve)",
    )
    parser.add_argument(
        "--h3-profile", default="none",
        help="named HTTP/3 alt-svc adoption profile for the synthetic "
             f"world: {_scenario_names(H3_PROFILES)}, or adopt-<fraction> "
             "(see repro.h3)",
    )


class _InputError(Exception):
    """Bad command-line input: :func:`main` prints it and exits 2."""


def _setup(args, **overrides):
    """The study flags as a validated config, its executor and the cache.

    ``overrides`` replace single :class:`StudyConfig` fields (sweep's
    first seed, evolve's policy).  The executor carries
    ``--task-timeout``; the caller closes it.
    """
    from repro.analysis.study import StudyConfig
    from repro.runtime import make_executor
    from repro.store import StudyCache

    if args.resume and args.cache_dir is None:
        raise _InputError("--resume requires --cache-dir (the journals live "
                          "under the cache)")
    config = StudyConfig(**{
        "seed": args.seed, "n_sites": args.sites, "executor": args.executor,
        "parallelism": args.jobs, "fault_profile": args.fault_profile,
        "epochs": args.epochs, "evolution_policy": args.evolution_policy,
        "h3_profile": args.h3_profile, "shards": args.shards, **overrides,
    })
    try:
        config.validate()
        executor = make_executor(config.executor, config.parallelism,
                                 task_timeout=args.task_timeout)
    except ValueError as error:
        raise _InputError(str(error)) from None
    cache = None if args.cache_dir is None else StudyCache(args.cache_dir)
    return config, executor, cache


def _check_sizes(args, **fields) -> None:
    """``StudyConfig.validate``'s checks on ``--sites`` and ``fields``.

    For the commands that build a world without running a study.
    """
    from repro.analysis.study import StudyConfig

    try:
        StudyConfig(seed=args.seed, n_sites=args.sites, **fields).validate()
    except ValueError as error:
        raise _InputError(str(error)) from None


def _study_from_args(args):
    """Run the full study as configured by the common CLI flags."""
    from repro.analysis.study import Study
    from repro.runtime import StageTimings

    config, executor, cache = _setup(args)
    timings = StageTimings(memory=getattr(args, "profile", False))
    with executor:
        study = Study.run(
            config, executor=executor, timings=timings, cache=cache,
            resume=args.resume, strict=args.strict,
        )
    if study.coverage is not None and not study.coverage.complete:
        print(f"warning: run is {study.coverage.describe()}; results "
              f"below exclude the quarantined shards", file=sys.stderr)
    return study


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Sharding and HTTP/2 Connection Reuse "
                    "Revisited' (IMC '21)",
    )
    parser.add_argument("--seed", type=int, default=7, help="root seed")
    commands = parser.add_subparsers(dest="command", required=True)

    study = commands.add_parser("study", help="run the full study")
    study.add_argument("--sites", type=int, default=400)
    study.add_argument("--table", default=None,
                       help="table number 1-12, or 'all'")
    study.add_argument("--figure", type=int, choices=(2, 3), default=None)
    study.add_argument("--headline", action="store_true")
    study.add_argument("--profile", action="store_true",
                       help="print per-stage wall-clock timings")
    _add_runtime_args(study)

    sweep = commands.add_parser(
        "sweep",
        help="run a scenario-matrix sweep and report cross-seed robustness",
    )
    sweep.add_argument("--sites", type=int, default=400,
                       help="base universe size (sweepable via --grid)")
    sweep.add_argument("--seeds", default=None,
                       help="comma-separated seeds (default: --seed)")
    sweep.add_argument(
        "--grid", action="append", default=[], metavar="FIELD=V1,V2",
        help="sweep a StudyConfig field over values; repeatable; "
             "tuple fields join elements with '+', e.g. "
             "alexa_variants=fetch+nofetch,fetch",
    )
    sweep.add_argument("--profile", action="store_true",
                       help="print aggregated stage timings and cache stats")
    _add_runtime_args(sweep)

    audit = commands.add_parser("audit", help="audit one site's connections")
    audit.add_argument("domain", nargs="?", default=None)
    audit.add_argument("--sites", type=int, default=150)

    dns = commands.add_parser("dnsstudy", help="the Appendix A.4 DNS study")
    dns.add_argument("--days", type=float, default=2.0)
    dns.add_argument("--sites", type=int, default=50)

    mitigations = commands.add_parser("mitigations",
                                      help="measure the mitigation levers")
    mitigations.add_argument("--sites", type=int, default=200)

    perf = commands.add_parser("perf",
                               help="performance impact of redundancy")
    perf.add_argument("--sites", type=int, default=300)
    _add_runtime_args(perf)

    report = commands.add_parser(
        "report", help="write the full evaluation report (Markdown)"
    )
    report.add_argument("output", help="output .md path")
    report.add_argument("--sites", type=int, default=400)
    _add_runtime_args(report)

    validate = commands.add_parser(
        "validate", help="check the study against the paper's claims"
    )
    validate.add_argument("--sites", type=int, default=400)
    _add_runtime_args(validate)

    resilience = commands.add_parser(
        "resilience",
        help="run a faulted study and diff it against its fault-free "
             "baseline (reuse deltas, attribution shifts, taxonomy)",
    )
    resilience.add_argument("--sites", type=int, default=200)
    _add_runtime_args(resilience)

    h3 = commands.add_parser(
        "h3",
        help="run an h3-rollout study and diff it against its h2-only "
             "baseline (protocol split, reuse deltas, what-if coalescing "
             "potential)",
    )
    h3.add_argument(
        "--sites", "--n-sites", dest="sites", type=int, default=200,
        help="universe size (both spellings accepted)",
    )
    _add_runtime_args(h3)

    evolve = commands.add_parser(
        "evolve",
        help="run a longitudinal study: the same scenario measured at "
             "every churn epoch (reuse trajectory, attribution drift, "
             "reuse-opportunity half-life)",
    )
    evolve.add_argument("--sites", type=int, default=200)
    evolve.add_argument(
        "--policy", default=None,
        help="named evolution policy: "
             f"{_scenario_names(POLICIES, skip=('none',))}",
    )
    _add_runtime_args(evolve)
    # For evolve, --epochs is the longitudinal horizon, not a world
    # offset; default to a 5-epoch sequence (0 = baseline study only).
    evolve.set_defaults(epochs=5)

    bench = commands.add_parser(
        "bench",
        help="measure pipeline + hot-path performance; write/check "
             "BENCH_*.json",
    )
    bench.add_argument(
        "--scales", default="smoke,golden,stress",
        help="comma-separated pipeline scales to run (smoke, golden, "
             "stress, smoke-sharded, golden-sharded, golden-pool)",
    )
    bench.add_argument("--repeat", type=int, default=3,
                       help="repetitions per measurement (best one wins)")
    bench.add_argument("--out-dir", default=".",
                       help="directory holding BENCH_pipeline.json / "
                            "BENCH_hotpath.json")
    bench.add_argument("--label", default="bench",
                       help="history label recorded for this session")
    bench.add_argument("--note", default="",
                       help="free-text note stored with the history entry")
    bench.add_argument("--pipeline-only", action="store_true",
                       help="skip the hot-path microbenchmarks")
    bench.add_argument("--hotpath", action="store_true",
                       help="run only the hot-path microbenchmarks")
    bench.add_argument(
        "--check", action="store_true",
        help="compare a fresh run against the committed "
             "BENCH_pipeline.json instead of rewriting it; exit 1 on "
             "digest mismatch or wall-clock regression",
    )
    bench.add_argument("--check-scale", default="golden",
                       help="scale measured by --check (default: golden)")
    bench.add_argument("--tolerance", type=float, default=0.25,
                       help="allowed relative wall-clock regression for "
                            "--check (0.25 == 25%%)")

    lint = commands.add_parser(
        "lint",
        help="run the determinism/cache-key/shared-state/typed-error "
             "static checks",
    )
    lint.add_argument(
        "paths", nargs="*", default=["src", "tools"],
        help="files or directories to lint (default: src tools)",
    )
    lint.add_argument(
        "--baseline", default="tools/lint_baseline.txt",
        help="baseline file of accepted findings (default: "
             "tools/lint_baseline.txt)",
    )
    lint.add_argument(
        "--write-baseline", action="store_true",
        help="rewrite the baseline file from the current findings",
    )
    lint.add_argument(
        "--check", action="store_true",
        help="CI mode: also fail when the baseline lists findings that "
             "no longer fire (the baseline may only shrink)",
    )

    serve = commands.add_parser(
        "serve",
        help="serve studies and sweeps over HTTP (JSON or SSE streaming) "
             "from one shared executor and cache (see docs/API_REFERENCE.md)",
    )
    serve.add_argument("--host", default="127.0.0.1",
                       help="address to bind (default: 127.0.0.1)")
    serve.add_argument("--port", type=int, default=8765,
                       help="port to bind (default: 8765; 0 picks a free one)")
    serve.add_argument(
        "--cache-dir", default=None,
        help="content-addressed stage cache shared by every request "
             "(required; warm requests answer near-instantly)",
    )
    serve.add_argument(
        "--executor", default="thread",
        help="shared execution substrate for all requests: serial, "
             "thread or process (default: thread)",
    )
    serve.add_argument(
        "--jobs", type=int, default=None,
        help="worker count for the shared executor",
    )
    serve.add_argument(
        "--max-inflight", type=int, default=4,
        help="admission limit: concurrent study/sweep requests beyond "
             "this are answered 429 (default: 4)",
    )
    serve.add_argument(
        "--request-timeout", type=float, default=None, metavar="SECONDS",
        help="per-connection socket timeout (default: none)",
    )

    runs = commands.add_parser(
        "runs",
        help="list the run journals under a cache directory (complete / "
             "resumable / quarantined), or show one run's records",
    )
    runs.add_argument(
        "run", nargs="?", default=None,
        help="run id (or unique prefix) to show in per-shard detail; "
             "omit to list every journal",
    )
    runs.add_argument(
        "--cache-dir", default=None,
        help="cache directory whose runs/ journals to inspect",
    )
    return parser


def _cmd_study(args) -> int:
    from repro.analysis import ALL_TABLES, figure2, figure3, headline

    study = _study_from_args(args)
    shown = False
    if args.table:
        names = sorted(ALL_TABLES) if args.table == "all" else [
            f"table{int(args.table)}"
        ]
        for name in names:
            if name not in ALL_TABLES:
                print(f"unknown table: {args.table}", file=sys.stderr)
                return 2
            print(ALL_TABLES[name](study).render())
            print()
        shown = True
    if args.figure == 2:
        print(figure2(study).render())
        shown = True
    elif args.figure == 3:
        print(figure3(study).render())
        shown = True
    if args.headline or not shown:
        print(headline(study).render())
    if args.profile:
        print()
        print(study.timings.render())
    return 0


def _cmd_sweep(args) -> int:
    from repro.analysis.robustness import robustness_report
    from repro.sweep import SweepSpec, run_sweep

    try:
        seeds = tuple(
            int(part) for part in (args.seeds or str(args.seed)).split(",")
        )
    except ValueError:
        raise _InputError(f"bad --seeds {args.seeds!r}") from None
    base, executor, cache = _setup(args, seed=seeds[0])
    with executor:
        try:
            spec = SweepSpec(
                base=base, seeds=seeds, axes=SweepSpec.parse_axes(args.grid)
            )
            spec.cells()  # expand eagerly so bad axis *values* exit cleanly
        except ValueError as error:
            raise _InputError(str(error)) from None
        result = run_sweep(
            spec, cache=cache, executor=executor, progress=print,
            resume=args.resume, strict=args.strict,
        )
    print()
    print(robustness_report(result))
    if args.profile:
        print()
        print(result.timings().render())
        if cache is not None:
            print()
            print(cache.render_stats())
    return 0


def _cmd_audit(args) -> int:
    from repro.browser.browser import ChromiumBrowser
    from repro.core.classifier import classify_site
    from repro.core.session import LifetimeModel, records_from_visit
    from repro.util.clock import SimClock
    from repro.web.ecosystem import Ecosystem, EcosystemConfig

    _check_sizes(args)
    ecosystem = Ecosystem.generate(
        EcosystemConfig(seed=args.seed, n_sites=args.sites)
    )
    domain = args.domain or ecosystem.websites[0].domain
    browser = ChromiumBrowser(
        ecosystem=ecosystem,
        resolver=ecosystem.make_resolver(),
        clock=SimClock(),
        rng=random.Random(args.seed),
    )
    visit = browser.visit(domain)
    if visit.unreachable:
        print(f"{domain}: unreachable", file=sys.stderr)
        return 1
    verdict = classify_site(domain, records_from_visit(visit),
                            model=LifetimeModel.ACTUAL)
    print(f"{domain}: {verdict.h2_connections} HTTP/2 connections, "
          f"{verdict.redundant_count} redundant")
    for hit in verdict.hits:
        print(f"  {hit.cause.value:<4} #{hit.record.connection_id} "
              f"{hit.record.domain} ({hit.record.ip})  "
              f"prev: #{hit.previous.connection_id} {hit.previous.domain} "
              f"({hit.previous.ip})")
    return 0


def _cmd_dnsstudy(args) -> int:
    from repro.analysis.figures import Figure3Result
    from repro.dnsstudy.study import DnsLoadBalancingStudy
    from repro.web.ecosystem import Ecosystem, EcosystemConfig

    _check_sizes(args, dns_study_days=args.days)
    ecosystem = Ecosystem.generate(
        EcosystemConfig(seed=args.seed, n_sites=args.sites)
    )
    result = DnsLoadBalancingStudy(
        ecosystem=ecosystem, duration_s=args.days * 24 * 3600.0
    ).run()
    print(Figure3Result(study=result).render())
    return 0


def _cmd_mitigations(args) -> int:
    from repro.analysis.ablation import compare_mitigations

    _check_sizes(args)
    comparison = compare_mitigations(seed=args.seed, n_sites=args.sites)
    print(comparison.render())
    return 0


def _cmd_perf(args) -> int:
    from repro.perf.corpus import corpus_impact

    study = _study_from_args(args)
    for key in ("har-endless", "alexa"):
        impact = corpus_impact(study.dataset(key), {})
        print(impact.render())
        print()
    return 0


def _cmd_report(args) -> int:
    from repro.analysis.report import write_report

    study = _study_from_args(args)
    path = write_report(study, args.output)
    print(f"report written to {path}")
    return 0


def _cmd_validate(args) -> int:
    from repro.analysis.validation import validate_study

    study = _study_from_args(args)
    scorecard = validate_study(study)
    print(scorecard.render())
    return 0 if scorecard.all_passed else 1


def _compare_with_baseline(args, axis: str, example: str, report) -> int:
    """Run the config with ``axis`` reset to ``none``, then the config,
    through one executor and cache, and print ``report(baseline, run)``."""
    from dataclasses import replace

    from repro.analysis.study import Study

    if getattr(args, axis) == "none":
        flag = "--" + axis.replace("_", "-")
        raise _InputError(f"{args.command} needs {flag} (e.g. {example})")
    config, executor, cache = _setup(args)
    with executor:
        baseline, run = [
            Study.run(
                scenario, executor=executor, cache=cache,
                resume=args.resume, strict=args.strict,
            )
            for scenario in (replace(config, **{axis: "none"}), config)
        ]
    print(report(baseline, run).render())
    return 0


def _cmd_resilience(args) -> int:
    from repro.analysis.resilience import resilience_report

    return _compare_with_baseline(
        args, "fault_profile",
        "flaky-dns, broken-tls, h2-churn, slow-origin, chaos",
        resilience_report,
    )


def _cmd_h3(args) -> int:
    from repro.analysis.h3 import h3_report

    return _compare_with_baseline(
        args, "h3_profile", "cdn-first, broad, adopt-0.25", h3_report
    )


def _cmd_evolve(args) -> int:
    from repro.evolve import run_longitudinal

    # --policy is the canonical spelling; fall back to the shared
    # --evolution-policy flag so both read naturally.
    policy = args.policy or args.evolution_policy
    if policy == "none":
        raise _InputError("evolve needs --policy (e.g. cert-rotation, "
                          "dns-churn, cdn-migration, shard-consolidation, "
                          "mixed)")
    config, executor, cache = _setup(args, evolution_policy=policy)
    with executor:
        result = run_longitudinal(
            config, policy=policy, epochs=config.epochs, executor=executor,
            cache=cache, progress=print,
            resume=args.resume, strict=args.strict,
        )
    print()
    print(result.render())
    return 0


def _cmd_bench(args) -> int:
    from pathlib import Path

    from repro.perfbench import (
        check_pipeline,
        load_bench,
        run_microbenchmarks,
        run_pipeline_bench,
        write_hotpath_bench,
        write_pipeline_bench,
    )
    from repro.perfbench.pipeline import SCALES
    from repro.perfbench.report import (
        HOTPATH_BENCH,
        PIPELINE_BENCH,
        CheckFailure,
        render_check_report,
    )

    out_dir = Path(args.out_dir)
    pipeline_path = out_dir / PIPELINE_BENCH

    if args.check:
        try:
            committed = load_bench(pipeline_path)
        except FileNotFoundError:
            print(f"error: no committed {pipeline_path} to check against",
                  file=sys.stderr)
            return 2
        except CheckFailure as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
        fresh = run_pipeline_bench(args.check_scale, repeats=args.repeat)
        try:
            outcome = check_pipeline(fresh, committed,
                                     tolerance=args.tolerance)
        except CheckFailure as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
        print(render_check_report(outcome))
        return 0 if outcome.passed else 1

    scales = [part.strip() for part in args.scales.split(",") if part.strip()]
    unknown = [scale for scale in scales if scale not in SCALES]
    if unknown:
        print(f"error: unknown scales {unknown}; pick from {sorted(SCALES)}",
              file=sys.stderr)
        return 2

    if not args.hotpath:
        # Ascending size: ru_maxrss is a process-wide high-water mark,
        # so larger scales must not run before smaller ones record
        # their peak RSS.
        scales.sort(key=lambda scale: SCALES[scale].n_sites)
        runs = []
        for scale in scales:
            run = run_pipeline_bench(scale, repeats=args.repeat)
            print(f"pipeline {scale:<7} {run.wall_s:8.2f} s  "
                  f"digest {run.digest}  peak RSS {run.peak_rss_kb:,} KiB")
            runs.append(run)
        payload = write_pipeline_bench(
            runs, pipeline_path, label=args.label, note=args.note
        )
        for scale, speedup in payload["speedup_vs_oldest"].items():
            print(f"  {scale}: {speedup:.2f}x vs oldest recorded baseline")
        print(f"wrote {pipeline_path}")

    if not args.pipeline_only:
        results = run_microbenchmarks(repeat=args.repeat)
        for result in results:
            print(f"hotpath {result.name:<20} {result.ops_per_s:>12,.0f} "
                  f"ops/s  ({result.note})")
        hotpath_path = out_dir / HOTPATH_BENCH
        write_hotpath_bench(results, hotpath_path, label=args.label)
        print(f"wrote {hotpath_path}")
    return 0


def _cmd_lint(args) -> int:
    from pathlib import Path

    from repro.lint import (
        Project,
        default_rules,
        load_baseline,
        run_lint,
        write_baseline,
    )

    root = Path.cwd()
    baseline_path = root / args.baseline
    project = Project.load(root, args.paths)
    baseline = load_baseline(baseline_path)
    report = run_lint(project, default_rules(), baseline=baseline)

    if args.write_baseline:
        write_baseline(baseline_path, report.findings)
        print(f"wrote {len(report.findings)} finding(s) to {args.baseline}")
        return 0

    for finding in report.new:
        print(finding.render())
    if args.check:
        for key in sorted(report.stale):
            print(f"stale baseline entry (finding no longer fires): "
                  f"{key.replace(chr(9), ' ')}")
    ok = report.ok(check=args.check)
    if not ok:
        print(
            f"repro lint: {len(report.new)} new finding(s), "
            f"{len(report.stale)} stale baseline entr(y/ies)",
            file=sys.stderr,
        )
    return 0 if ok else 1


def _cmd_serve(args) -> int:
    import signal

    from repro.serve import StudyService, make_server

    if args.cache_dir is None:
        print("error: serve needs --cache-dir (the cache is what makes "
              "repeated requests instant)", file=sys.stderr)
        return 2
    try:
        service = StudyService(
            args.cache_dir, executor=args.executor, jobs=args.jobs,
            max_inflight=args.max_inflight,
        )
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    server = make_server(
        service, host=args.host, port=args.port,
        request_timeout=args.request_timeout,
    )
    host, port = server.server_address[:2]
    print(f"repro serve: listening on http://{host}:{port} "
          f"(executor={args.executor}, max_inflight={args.max_inflight}, "
          f"cache={args.cache_dir})", file=sys.stderr)

    def _sigterm(signum, frame):
        # Fold SIGTERM into the KeyboardInterrupt path so systemd-style
        # stops and Ctrl-C drain identically.
        raise KeyboardInterrupt

    previous = signal.signal(signal.SIGTERM, _sigterm)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        # Graceful drain: stop admitting, let every inflight request
        # hit its next observer checkpoint (which journals and sends a
        # terminal error event to streaming clients), then tear down.
        print("\nrepro serve: draining inflight requests...",
              file=sys.stderr)
        service.drain()
        if not service.wait_idle(timeout=30.0):
            print("repro serve: drain timed out; journals of unfinished "
                  "runs remain resumable", file=sys.stderr)
        print(f"interrupted; re-run interrupted requests with "
              f"\"resume\": true (or repro study --resume --cache-dir "
              f"{args.cache_dir}) to pick up where they left off",
              file=sys.stderr)
        return 130
    finally:
        signal.signal(signal.SIGTERM, previous)
        server.server_close()
        service.close()
    return 0


def _cmd_runs(args) -> int:
    from pathlib import Path

    from repro.runlog import list_runs, render_run_detail, render_runs

    if args.cache_dir is None:
        print("error: runs needs --cache-dir (journals live under "
              "<cache-dir>/runs/)", file=sys.stderr)
        return 2
    directory = Path(args.cache_dir)
    if args.run is not None:
        detail = render_run_detail(directory, args.run)
        if detail is None:
            print(f"error: no unique run journal matches {args.run!r} "
                  f"under {directory}/runs/", file=sys.stderr)
            return 1
        print(detail)
        return 0
    print(render_runs(list_runs(directory)))
    return 0


_COMMANDS = {
    "study": _cmd_study,
    "sweep": _cmd_sweep,
    "audit": _cmd_audit,
    "dnsstudy": _cmd_dnsstudy,
    "mitigations": _cmd_mitigations,
    "perf": _cmd_perf,
    "report": _cmd_report,
    "validate": _cmd_validate,
    "resilience": _cmd_resilience,
    "h3": _cmd_h3,
    "evolve": _cmd_evolve,
    "bench": _cmd_bench,
    "lint": _cmd_lint,
    "serve": _cmd_serve,
    "runs": _cmd_runs,
}


def main(argv: list[str] | None = None) -> int:
    """Entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except _InputError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        # Ctrl-C mid-run is an expected, recoverable event, not a
        # crash: executor pools and run journals close on their way
        # out (context managers / finally blocks), the cache only ever
        # holds atomically-renamed entries, and the journal's flushed
        # prefix (fsynced up to its last synced record; closing syncs
        # any trailing shard-skip notes) is exactly what --resume
        # replays.
        print("\ninterrupted; re-run with --resume --cache-dir to pick "
              "up where this run left off", file=sys.stderr)
        return 130
    except BrokenPipeError:
        # stdout went away (e.g. piped into `head`): die quietly like
        # any well-behaved unix filter.  Point the dangling descriptor
        # at devnull so the interpreter's shutdown flush cannot raise
        # a second time.
        import os

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141  # 128 + SIGPIPE, the shell convention


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    raise SystemExit(main())
