"""CI smoke for ``repro serve``: golden digest over HTTP, then SIGTERM.

Boots the real server subprocess on an ephemeral port, runs the
golden-pinned study (``StudyConfig(seed=7, n_sites=120)``) twice over
HTTP, and checks:

1. the cold response's digest equals ``tests/golden/digest.txt`` —
   the service cannot drift from the CLI pipeline;
2. the warm repeat reports ``"cached": true`` with the same digest,
   headline and datasets (the headline reads the Fetch-compliant run,
   which a warm study loads only when read, and is outside the digest);
3. SIGTERM drains and the process exits 130 (the interrupted-run rc).

Run standalone (exit 1 on any failure)::

    PYTHONPATH=src python tools/serve_smoke.py
"""

from __future__ import annotations

import json
import os
import re
import signal
import subprocess
import sys
import tempfile
import urllib.request
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
_LISTEN = re.compile(r"listening on http://([\d.]+):(\d+)")
_BODY = {"schema": 1, "seed": 7, "n_sites": 120}


def _post_study(base: str) -> dict:
    request = urllib.request.Request(
        base + "/v1/study", data=json.dumps(_BODY).encode(),
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request, timeout=300) as response:
        return json.load(response)


def main() -> int:
    pinned = (REPO_ROOT / "tests/golden/digest.txt").read_text().strip()
    # CI driver, not pipeline code: the subprocess needs the host env.
    env = dict(os.environ)  # repro-lint: ignore[determinism]
    env["PYTHONPATH"] = "src"
    env["PYTHONUNBUFFERED"] = "1"
    failures: list[str] = []
    with tempfile.TemporaryDirectory() as tmp:
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--cache-dir", os.path.join(tmp, "cache")],
            stderr=subprocess.PIPE, text=True, cwd=REPO_ROOT, env=env,
        )
        try:
            line = proc.stderr.readline()
            match = _LISTEN.search(line)
            if not match:
                print(f"FAIL: no listening line, got {line!r}")
                return 1
            base = f"http://{match.group(1)}:{match.group(2)}"
            print(f"server up at {base}")

            cold = _post_study(base)
            print(f"cold:  digest={cold['digest']} cached={cold['cached']}")
            if cold["digest"] != pinned:
                failures.append(
                    f"cold digest {cold['digest']} != pinned {pinned}"
                )
            if cold["cached"]:
                failures.append("cold request claims cached")

            warm = _post_study(base)
            print(f"warm:  digest={warm['digest']} cached={warm['cached']}")
            if warm["digest"] != pinned:
                failures.append(
                    f"warm digest {warm['digest']} != pinned {pinned}"
                )
            if not warm["cached"]:
                failures.append("warm repeat not served from cache")
            for field in ("headline", "datasets"):
                if warm[field] != cold[field]:
                    failures.append(f"warm {field} differs from cold")

            proc.send_signal(signal.SIGTERM)
            remainder = proc.stderr.read()
            rc = proc.wait(timeout=60)
            print(f"sigterm: rc={rc}")
            if rc != 130:
                failures.append(f"SIGTERM exit code {rc}, expected 130")
            if "draining inflight requests" not in remainder:
                failures.append("no drain message on stderr")
        finally:
            if proc.poll() is None:
                proc.kill()
            proc.stderr.close()
            proc.wait(timeout=30)
    for failure in failures:
        print(f"FAIL: {failure}")
    print("serve smoke: " + ("OK" if not failures else "FAILED"))
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
