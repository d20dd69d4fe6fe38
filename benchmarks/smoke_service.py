#!/usr/bin/env python
"""End-to-end smoke check for ``python -m repro serve``.

Launches the real server as a subprocess, fires TWO identical small
``fig4`` submissions concurrently, and asserts the service contract:

* exactly one of the two submissions creates the job, the other
  coalesces onto it (same job id, ``coalesced`` flags ``{False, True}``);
* the shared job computes once (``submissions == 2``, one engine run);
* the service result is identical to a plain CLI run
  (``python -m repro run fig4 --dump-json``) at the same seed/batch —
  the job API must not change any number the paper pipeline produces.
* a submission with a bad param (``{"topology": "squre"}``) is refused
  at submit with HTTP 400 and a did-you-mean suggestion, and creates no
  job.

Written as a plain script (not pytest) so CI can run it as its own step
against the packaged entry point; ``--artifact PATH`` records a JSON
summary for upload.  Exits non-zero on any violation.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import re
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.obs.metrics import parse_prometheus  # noqa: E402
from repro.service.http import request  # noqa: E402

_LISTEN_RE = re.compile(r"listening on http://([\d.]+):(\d+)")

#: Small but non-trivial fig4 configuration: a few seconds of real
#: Monte-Carlo, long enough that the second submission lands mid-flight.
EXPERIMENT = "fig4"
PARAMS = {"seed": 7, "batch_size": 50}


class SmokeFailure(AssertionError):
    pass


def check(condition: bool, message: str) -> None:
    if not condition:
        raise SmokeFailure(message)


def launch_server(env: dict) -> tuple[subprocess.Popen, str, int]:
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0", "--workers", "2",
         "--no-cache"],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=env,
    )
    deadline = time.time() + 60
    while time.time() < deadline:
        line = proc.stdout.readline()
        if not line:
            check(proc.poll() is None, "server exited before listening")
            continue
        match = _LISTEN_RE.search(line)
        if match:
            return proc, match.group(1), int(match.group(2))
    raise SmokeFailure("server never reported its listening address")


async def check_bad_params_refused(host: str, port: int) -> None:
    payload = {"experiment": EXPERIMENT, "params": {"topology": "squre"}}
    status, _, body = await request(host, port, "POST", "/jobs", payload)
    check(status == 400, f"bad topology returned {status}: {body}")
    check(
        "did you mean 'square'" in json.dumps(body),
        f"bad topology answer has no suggestion: {body}",
    )
    status, _, jobs = await request(host, port, "GET", "/jobs")
    check(status == 200 and jobs == [], f"refused submission left jobs: {jobs}")


async def exercise_service(host: str, port: int) -> dict:
    await check_bad_params_refused(host, port)
    payload = {"experiment": EXPERIMENT, "params": PARAMS, "client": "smoke"}
    first, second = await asyncio.gather(
        request(host, port, "POST", "/jobs", payload),
        request(host, port, "POST", "/jobs", payload),
    )
    for status, _, body in (first, second):
        check(status == 202, f"submit returned {status}: {body}")
    bodies = [first[2], second[2]]
    check(
        bodies[0]["id"] == bodies[1]["id"],
        f"identical submissions got different jobs: {bodies[0]['id']} vs {bodies[1]['id']}",
    )
    flags = sorted(body["coalesced"] for body in bodies)
    check(flags == [False, True], f"expected one coalesced submission, got {flags}")
    job_id = bodies[0]["id"]

    status, _, result = await request(
        host, port, "GET", f"/jobs/{job_id}/result?wait=600", timeout=620
    )
    check(status == 200, f"result returned {status}: {result}")
    check(result["engine"]["tasks_executed"] > 0, "job executed no engine tasks")

    status, _, snapshot = await request(host, port, "GET", f"/jobs/{job_id}")
    check(snapshot["submissions"] == 2, f"submissions = {snapshot['submissions']}")
    check(snapshot["state"] == "succeeded", f"state = {snapshot['state']}")

    status, _, stats = await request(host, port, "GET", "/stats")
    check(stats["submitted"] == 2, f"stats.submitted = {stats['submitted']}")
    check(stats["coalesced"] == 1, f"stats.coalesced = {stats['coalesced']}")
    check(stats["succeeded"] == 1, f"stats.succeeded = {stats['succeeded']}")

    # The Prometheus endpoint must parse and carry the queue/coalescing/
    # retry series (the retry family is pre-registered at zero, so it is
    # present even on a clean run).
    status, headers, metrics_text = await request(host, port, "GET", "/metrics")
    check(status == 200, f"/metrics returned {status}")
    check(
        "text/plain" in headers.get("content-type", ""),
        f"/metrics content-type = {headers.get('content-type')!r}",
    )
    series = parse_prometheus(metrics_text)
    submissions = series.get("repro_service_submissions_total", {})
    check(
        submissions.get((("outcome", "accepted"),)) == 1.0,
        f"metrics accepted = {submissions.get((('outcome', 'accepted'),))}",
    )
    check(
        submissions.get((("outcome", "coalesced"),)) == 1.0,
        f"metrics coalesced = {submissions.get((('outcome', 'coalesced'),))}",
    )
    check(
        () in series.get("repro_service_queue_depth", {}),
        "queue-depth gauge missing from /metrics",
    )
    check(
        "repro_service_retries_total" in series,
        "retry counter family missing from /metrics",
    )
    check(
        series.get("repro_service_jobs_total", {}).get((("state", "succeeded"),))
        == 1.0,
        "succeeded-jobs counter missing or wrong in /metrics",
    )
    metrics_summary = {
        "series_families": len(series),
        "submissions_accepted": submissions.get((("outcome", "accepted"),)),
        "submissions_coalesced": submissions.get((("outcome", "coalesced"),)),
    }
    return {
        "job": snapshot, "result": result, "stats": stats,
        "metrics": metrics_summary,
    }


def cli_reference(env: dict) -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        dump = Path(tmp) / "cli.json"
        subprocess.run(
            [sys.executable, "-m", "repro", "run", EXPERIMENT,
             "--seed", str(PARAMS["seed"]), "--batch", str(PARAMS["batch_size"]),
             "--no-cache", "--quiet", "--dump-json", str(dump)],
            check=True,
            env=env,
            timeout=600,
            stdout=subprocess.DEVNULL,
        )
        return json.loads(dump.read_text())


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--artifact", type=Path, default=None,
        help="write a JSON summary of the smoke run to this path",
    )
    args = parser.parse_args()

    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")

    started = time.time()
    proc, host, port = launch_server(env)
    summary: dict = {"experiment": EXPERIMENT, "params": PARAMS}
    try:
        service = asyncio.run(exercise_service(host, port))
        summary.update(service)

        cli = cli_reference(env)
        check(
            cli["result"] == service["result"]["result"],
            "service result differs from the CLI run at the same seed/batch",
        )
        check(
            cli["text"] == service["result"]["text"],
            "service result table differs from the CLI run",
        )
        summary["cli_matches"] = True
        summary["elapsed_seconds"] = time.time() - started
        print(
            f"[smoke] OK: bad params refused with 400, one coalesced fig4 "
            f"job, 2 submissions, service == CLI "
            f"({summary['elapsed_seconds']:.1f}s)"
        )
        return 0
    except SmokeFailure as failure:
        summary["failure"] = str(failure)
        print(f"[smoke] FAIL: {failure}", file=sys.stderr)
        return 1
    finally:
        proc.terminate()
        try:
            proc.wait(timeout=15)
        except subprocess.TimeoutExpired:
            proc.kill()
        if args.artifact is not None:
            args.artifact.write_text(json.dumps(summary, indent=2) + "\n")


if __name__ == "__main__":
    raise SystemExit(main())
