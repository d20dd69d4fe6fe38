"""Command-line entry point: ``python -m repro``.

Subcommands
-----------
``run <experiment>``
    Regenerate one figure/table of the paper through the parallel
    experiment engine.  ``--jobs N`` sets the worker-process count:
    ``1`` runs everything in-process, above it batches with two or more
    pending tasks run on a process pool (results are bit-identical;
    values below 1 exit with status 2), and ``--no-cache`` bypasses the
    on-disk result cache.  Every other option is a row of
    :data:`repro.analysis.registry.RUNNER_OPTIONS`, the table the
    service's job parameters share: ``--seed S`` overrides the
    experiment's master seed, ``--batch B`` scales the Monte-Carlo
    batches, ``--full`` requests the paper-sized sweep and
    ``--topology T`` switches to another registered architecture
    (heavy-hex, square, ring).  The statistics flags select the
    adaptive Monte-Carlo layer: ``--chunk-size C`` streams every yield
    point in O(C) memory, ``--ci-target H`` keeps sampling each point
    until its confidence-interval half-width is at most ``H`` (capped
    by ``--max-samples``, default: the batch size).  The tuning flags
    enable the post-fabrication repair stage: ``--tuning STRATEGY``
    selects the repair strategy (``greedy`` or ``anneal``),
    ``--max-shift-mhz`` bounds the tuner's reach and ``--repair-budget``
    caps the accepted shifts per qubit (``0`` is a strict no-op
    baseline).  The compiler flags steer the application experiments
    (``fig10``, ``appsweep``): ``--benchmarks NAMES`` restricts the
    compiled benchmark subset (comma-separated) and ``--routing NAME``
    selects a registered routing strategy (``basic`` or
    ``noise-aware``).  A bad value (a negative seed, a batch below 1,
    an unknown name, ...) exits with status 2 and the message the
    service answers with HTTP 400; an unknown name carries a
    did-you-mean suggestion.  Options the experiment does not read draw
    one warning on stderr naming them.  ``--dump-json
    PATH`` writes the experiment's full result — every numeric field,
    confidence intervals included — to a machine-readable JSON file,
    along with engine statistics and the routing-cache, layout-memo and
    result-cache traffic of the run (worker processes included).
    ``--trace PATH`` records a span trace of the run (engine batches,
    per-task and per-phase spans, worker-process spans re-parented under
    the submitting task): a ``.jsonl`` path writes one span per line,
    anything else writes Chrome trace-event JSON loadable in Perfetto
    or ``chrome://tracing``.  ``--log-level``/``--log-json`` configure
    the ``repro.*`` structured-logging spine (``REPRO_LOG_LEVEL`` sets
    the default level).
``trace <path>``
    Summarize a trace file produced by ``run --trace``: span count,
    top spans by duration, per-name rollup and the critical path.
    ``--json`` emits the summary as JSON instead of text.
``list``
    Show every registered experiment, topology, repair strategy,
    benchmark and routing strategy.
``cache info|clear``
    Show the on-disk result cache's directory and entry count, or drop
    every entry.
``serve``
    Run the reproduction service: an asyncio HTTP job API over the
    engine (stdlib only, no extra dependencies).  ``--host``/``--port``
    bind the listener (``--port 0`` picks a free port and prints it),
    ``--workers`` sets the concurrent-job count, ``--queue-size`` the
    bounded-queue capacity (submissions beyond it get HTTP 429; both,
    like ``--max-attempts``, exit with status 2 below 1),
    ``--rate``/``--burst`` enable per-client token-bucket rate limiting,
    ``--max-attempts`` caps transient-failure retries and
    ``--jobs``/``--no-cache`` configure each job's
    execution engine exactly like ``run``, and
    ``--log-level``/``--log-json`` the logging spine.  Submissions with
    identical experiment + parameters + code version coalesce onto one
    in-flight job.  ``GET /metrics`` exposes the process-wide metrics
    registry in Prometheus text format.  See the README's "Reproduction
    as a service" section for the endpoint reference.

Unknown names (experiment, topology, routing or repair strategy,
benchmark) exit with status 2 and a did-you-mean suggestion from the
corresponding registry.

Examples
--------
::

    python -m repro list
    python -m repro run fig4 --jobs 4 --seed 7
    python -m repro run fig4 --topology square --jobs 2
    python -m repro run topoyield --batch 500
    python -m repro run fig4 --ci-target 0.02 --chunk-size 250 --max-samples 4000
    python -m repro run tunedyield --tuning greedy --max-shift-mhz 100
    python -m repro run repairbudget --tuning anneal --jobs 4
    python -m repro run fig10 --routing noise-aware --benchmarks bv,qaoa
    python -m repro run appsweep --jobs 4 --batch 400
    python -m repro run fig4 --dump-json fig4.json
    python -m repro run fig4 --trace fig4.trace.json --jobs 2
    python -m repro trace fig4.trace.json --top 5
    python -m repro run fig4 --log-level debug
    python -m repro run fig8 --jobs 4 --batch 2000
    python -m repro cache clear
    python -m repro serve --port 8151 --workers 2
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

from repro.analysis.registry import EXPERIMENTS, RUNNER_OPTIONS, parse_runner_options
from repro.analysis.reporting import cache_traffic, jsonable
from repro.circuits.benchmarks import BENCHMARK_NAMES
from repro.compiler.pipeline import ROUTING_STRATEGIES
from repro.core.architecture import ARCHITECTURES
from repro.engine.cache import ResultCache
from repro.engine.runner import ExecutionEngine
from repro.obs.logs import configure_logging
from repro.obs import tracing as obs_tracing
from repro.obs.export import format_summary, load_trace, summarize, write_trace
from repro.obs.metrics import REGISTRY
from repro.tuning.strategies import STRATEGIES

__all__ = ["main"]


def _positive_int(text: str) -> int:
    """An argparse type: an integer of at least 1 (exit 2 otherwise)."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Regenerate the paper's figures/tables on the parallel "
        "experiment engine.",
    )
    sub = parser.add_subparsers(dest="command")

    run = sub.add_parser("run", help="run one experiment")
    run.add_argument("experiment", help="experiment name (see `list`)")
    run.add_argument(
        "--jobs",
        "-j",
        type=_positive_int,
        default=None,
        help="worker processes (default: all cores; 1 = in-process; "
        "results are bit-identical at any value)",
    )
    run.add_argument(
        "--no-cache",
        action="store_true",
        help="bypass the on-disk result cache",
    )
    for option in RUNNER_OPTIONS.specs():
        lexical = (
            {"action": "store_true"} if option.type is bool else {"type": option.type}
        )
        run.add_argument(
            *option.flags, dest=option.name, default=None, help=option.help, **lexical
        )
    run.add_argument(
        "--dump-json",
        type=Path,
        default=None,
        metavar="PATH",
        help="write the experiment's result (CIs included) to a JSON file",
    )
    run.add_argument(
        "--trace",
        type=Path,
        default=None,
        metavar="PATH",
        help="record a span trace of the run (.jsonl = one span per "
        "line, anything else = Chrome trace-event JSON for Perfetto)",
    )
    run.add_argument(
        "--quiet", "-q", action="store_true", help="suppress the result table"
    )
    _add_logging_flags(run)

    trace = sub.add_parser(
        "trace", help="summarize a trace file produced by `run --trace`"
    )
    trace.add_argument("path", type=Path, help="trace file (.jsonl or Chrome)")
    trace.add_argument(
        "--top", type=int, default=10, help="longest spans to show (default 10)"
    )
    trace.add_argument(
        "--json", action="store_true", help="emit the summary as JSON"
    )

    sub.add_parser("list", help="list registered experiments")

    cache = sub.add_parser("cache", help="manage the on-disk result cache")
    cache.add_argument("action", choices=("clear", "info"))

    serve = sub.add_parser("serve", help="run the HTTP reproduction service")
    serve.add_argument("--host", default="127.0.0.1", help="bind address")
    serve.add_argument(
        "--port", type=int, default=8151, help="bind port (0 picks a free one)"
    )
    serve.add_argument(
        "--workers",
        type=_positive_int,
        default=2,
        help="concurrent jobs (warm pool size)",
    )
    serve.add_argument(
        "--queue-size",
        type=_positive_int,
        default=32,
        help="bounded job-queue capacity (submissions beyond it get 429)",
    )
    serve.add_argument(
        "--rate",
        type=float,
        default=None,
        help="per-client rate limit in submissions/second (off by default)",
    )
    serve.add_argument(
        "--burst",
        type=float,
        default=10.0,
        help="per-client burst capacity when --rate is set",
    )
    serve.add_argument(
        "--max-attempts",
        type=_positive_int,
        default=3,
        help="attempts per job for transient failures (1 disables retries)",
    )
    serve.add_argument(
        "--jobs",
        "-j",
        type=_positive_int,
        default=None,
        help="engine worker processes per job (default: all cores; "
        "1 = in-process)",
    )
    serve.add_argument(
        "--no-cache",
        action="store_true",
        help="bypass the on-disk result cache",
    )
    _add_logging_flags(serve)
    return parser


def _add_logging_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--log-level",
        default=None,
        metavar="LEVEL",
        help="repro.* log level (debug, info, warning, error; "
        "default: $REPRO_LOG_LEVEL or warning)",
    )
    sub.add_argument(
        "--log-json",
        action="store_true",
        help="emit log lines as JSON objects",
    )


def _summary(item) -> str:
    """An entry's description, else its docstring's first line."""
    text = getattr(item, "description", None) or (item.__doc__ or "").strip()
    return text.splitlines()[0] if text else ""


def _cmd_list() -> int:
    print("experiments:")
    width = max((len(name) for name in EXPERIMENTS.names()), default=0)
    for spec in EXPERIMENTS.specs():
        aliases = f"  (aliases: {', '.join(spec.aliases)})" if spec.aliases else ""
        print(f"  {spec.name:<{width}}  {spec.description}{aliases}")
    for title, registry in (
        ("topologies (for --topology)", ARCHITECTURES),
        ("repair strategies (for --tuning)", STRATEGIES),
        ("routing strategies (for --routing)", ROUTING_STRATEGIES),
    ):
        print(f"\n{title}:")
        width = max((len(name) for name in registry.names()), default=0)
        for name, item in zip(registry.names(), registry.specs()):
            print(f"  {name:<{width}}  {_summary(item)}")
    print("\nbenchmarks (for --benchmarks):")
    print("  " + ", ".join(BENCHMARK_NAMES))
    return 0


def _cmd_cache(action: str) -> int:
    cache = ResultCache()
    if action == "clear":
        removed = cache.clear()
        print(f"removed {removed} cached result(s) from {cache.directory}")
    else:
        print(f"cache directory: {cache.directory}")
        print(f"entries: {len(cache)}")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    try:
        configure_logging(level=args.log_level, json_format=args.log_json)
    except ValueError as exc:
        print(f"invalid logging options: {exc}", file=sys.stderr)
        return 2
    try:
        spec = EXPERIMENTS.get(args.experiment)
    except KeyError as exc:
        print(exc.args[0], file=sys.stderr)
        return 2
    raw = {name: getattr(args, name) for name in RUNNER_OPTIONS.names()}
    try:
        kwargs, ignored = parse_runner_options(spec, raw)
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return 2
    if ignored:
        flags = ", ".join(RUNNER_OPTIONS.get(name).flags[0] for name in ignored)
        print(
            f"warning: experiment {spec.name!r} does not read {flags}; "
            "they have no effect on it",
            file=sys.stderr,
        )

    tracer = obs_tracing.Tracer() if args.trace is not None else None
    engine = ExecutionEngine(
        jobs=args.jobs, use_cache=not args.no_cache, tracer=tracer
    )

    def _run() -> tuple:
        return spec.runner(engine, **kwargs)

    marks = REGISTRY.checkpoint()
    started = time.perf_counter()
    if tracer is not None:
        with tracer.activate():
            with obs_tracing.span("run:" + spec.name):
                result, text = _run()
    else:
        result, text = _run()
    elapsed = time.perf_counter() - started

    if tracer is not None:
        write_trace(tracer.spans, str(args.trace))
        print(
            f"[trace] {len(tracer)} span(s) written to {args.trace} "
            f"(trace id {tracer.trace_id})"
        )

    if not args.quiet:
        print(f"[{spec.name}] {spec.description}")
        print(text)
    if args.dump_json is not None:
        traffic = cache_traffic(marks)
        if engine.cache is None:
            traffic["result_cache"] = None
        payload = {
            "experiment": spec.name,
            "description": spec.description,
            **{
                name: jsonable(kwargs.get(name))
                for name in ("seed", "batch_size", "topology", "benchmarks",
                             "routing", "tuning")
            },
            "elapsed_seconds": elapsed,
            "engine": {
                "jobs": engine.stats.jobs,
                "workers_used": engine.stats.workers_used,
                "tasks_total": engine.stats.tasks_total,
                "tasks_executed": engine.stats.tasks_executed,
                "cache_hits": engine.stats.cache_hits,
                "wall_seconds": engine.stats.wall_seconds,
                "seconds_by_family": jsonable(dict(engine.stats.seconds_by_family)),
                "seconds_by_phase": jsonable(dict(engine.stats.seconds_by_phase)),
                "unattributed_seconds": engine.stats.unattributed_seconds,
                **traffic,
            },
            "result": jsonable(result),
            "text": text,
        }
        args.dump_json.write_text(json.dumps(payload, indent=2) + "\n")
        print(f"[dump] result written to {args.dump_json}")
    print(f"\n[engine] {engine.stats.summary()}")
    print(f"[engine] experiment wall-clock: {elapsed:.2f}s")
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    try:
        spans = load_trace(str(args.path))
    except FileNotFoundError:
        print(f"no such trace file: {args.path}", file=sys.stderr)
        return 2
    except (ValueError, json.JSONDecodeError) as exc:
        print(f"unreadable trace file {args.path}: {exc}", file=sys.stderr)
        return 2
    summary = summarize(spans, top=args.top)
    if args.json:
        print(json.dumps(jsonable(summary), indent=2))
    else:
        print(format_summary(summary))
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from repro.service.failures import RetryPolicy
    from repro.service.http import ServiceServer
    from repro.service.manager import JobManager
    from repro.service.ratelimit import RateLimiter

    try:
        configure_logging(level=args.log_level, json_format=args.log_json)
    except ValueError as exc:
        print(f"invalid logging options: {exc}", file=sys.stderr)
        return 2
    try:
        retry = RetryPolicy(max_attempts=args.max_attempts)
    except ValueError as exc:
        print(f"invalid retry options: {exc}", file=sys.stderr)
        return 2
    limiter = (
        RateLimiter(rate=args.rate, burst=args.burst)
        if args.rate is not None
        else None
    )
    engine_options = {
        "jobs": args.jobs,
        "use_cache": not args.no_cache,
    }

    async def _serve() -> None:
        manager = JobManager(
            workers=args.workers,
            queue_size=args.queue_size,
            retry=retry,
            limiter=limiter,
            engine_options=engine_options,
        )
        async with manager:
            server = ServiceServer(manager, host=args.host, port=args.port)
            await server.start()
            print(
                f"[serve] listening on http://{server.host}:{server.port} "
                f"(workers={manager.workers}, queue={manager.queue_size})",
                flush=True,
            )
            try:
                await server.serve_forever()
            except asyncio.CancelledError:
                pass
            finally:
                await server.stop()

    try:
        asyncio.run(_serve())
    except KeyboardInterrupt:
        print("\n[serve] stopped")
    return 0


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "list":
            return _cmd_list()
        if args.command == "cache":
            return _cmd_cache(args.action)
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "trace":
            return _cmd_trace(args)
        if args.command == "serve":
            return _cmd_serve(args)
    except BrokenPipeError:
        # Output piped into a pager/head that quit early (`repro trace
        # ... | head`): not an error.  Point stdout at devnull so the
        # interpreter's exit-time flush doesn't raise again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0
    parser.print_help()
    return 1


if __name__ == "__main__":
    raise SystemExit(main())
