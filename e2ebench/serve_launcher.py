"""Server process of the serve-warm workload.

Runs ``repro serve`` in this interpreter through ``repro.cli.main``,
optionally with the tracing wrappers installed first, so the server's
own layers are traced from the benchmark's side.  When the server stops
(SIGTERM drains it and ``main`` returns), the launcher writes a report:
the exit code, the process's peak RSS and, when traced, the span counts
and times; the spans themselves go to ``--spans``.

Usage::

    python3 serve_launcher.py --report R.json [--trace 1 --spans S] \\
        -- --port 0 --cache-dir DIR
"""

from __future__ import annotations

import argparse
import resource
import signal
import sys
from pathlib import Path

from common import SCHEMA, write_json_atomic
from tracer import Tracer


def _interrupt(signum, frame) -> None:
    raise KeyboardInterrupt


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--report", type=Path, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", type=Path, default=None)
    parser.add_argument("serve_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    serve_args = args.serve_args
    if serve_args[:1] == ["--"]:
        serve_args = serve_args[1:]

    # ``repro serve`` turns SIGTERM into a drain, but only once it is
    # listening; do the same before that, so an early stop is a drain
    # and never a kill.
    signal.signal(signal.SIGTERM, _interrupt)
    tracer = Tracer() if args.trace else None
    if tracer is not None:
        tracer.install(("protocol", "pipeline", "serve"))
    from repro.cli import main as repro_main

    try:
        rc = repro_main(["serve", *serve_args])
    finally:
        if tracer is not None:
            tracer.restore()
    report = {
        "schema": SCHEMA,
        "rc": rc,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        report["counts"] = tracer.counts()
        report["times"] = tracer.times()
        report["spans"] = tracer.span_count()
        if args.spans is not None:
            tracer.write_spans(args.spans)
    write_json_atomic(args.report, report)
    # 130 is the drain exit of a SIGTERM'd server: the expected stop.
    return 0 if rc in (0, 130) else rc


if __name__ == "__main__":
    sys.exit(main())
