"""The in-process job manager: coalescing, backpressure, retries, cancellation.

:class:`JobManager` is the service's brain, usable directly from tests
and wrapped by the HTTP front-end (:mod:`repro.service.http`).  It owns:

* a **bounded** ``asyncio.Queue`` of accepted jobs — a full queue rejects
  with :class:`QueueFull` (HTTP 429) instead of growing without limit;
* a **warm, persistent worker pool**: N asyncio worker loops, each
  running jobs on a long-lived ``ThreadPoolExecutor`` thread so the
  event loop stays responsive while an experiment crunches;
* **validation at submit**: params go through
  :func:`repro.analysis.registry.parse_runner_options`, the schema the
  CLI shares, so a bad value raises ``ValueError`` (HTTP 400) before
  anything is queued, and options the runner does not read are dropped;
* **request coalescing**: the coalescing key reuses the engine cache's
  content-addressing recipe — ``(experiment name, the runner's parsed
  kwargs, code version)`` through
  :meth:`repro.engine.cache.ResultCache.key_for` — so two submissions
  that would compute identical numbers share one job and both observe
  its result;
* **failure classification + retry** with exponential backoff and jitter
  (:mod:`repro.service.failures`): transient infrastructure failures
  retry up to ``retry.max_attempts``, deterministic task exceptions fail
  fast and are recorded on the job;
* **cancellation**: each job carries a
  :class:`~repro.engine.backends.CancelToken` threaded into its
  ``ExecutionEngine``, so ``cancel()`` stops the scheduling of remaining
  calls whether the batch runs in-process or on the process pool;
* optional **per-client token-bucket rate limiting**
  (:mod:`repro.service.ratelimit`).

Single-threaded discipline: all manager state is mutated on the event
loop only.  Worker threads report engine progress through
``loop.call_soon_threadsafe``, which is the sole cross-thread touchpoint.
"""

from __future__ import annotations

import asyncio
import random
import time
from concurrent.futures import ThreadPoolExecutor
from functools import partial
from typing import Any, AsyncIterator, Callable

from repro.analysis.registry import parse_runner_options
from repro.core.sample_bank import sample_bank_stats
from repro.engine.cache import ResultCache, code_version_token
from repro.engine.runner import ExecutionEngine
from repro.obs.logs import get_logger
from repro.obs.metrics import REGISTRY
from repro.service.failures import FailureClass, FailureClassifier, RetryPolicy
from repro.service.jobs import TERMINAL_STATES, Job, JobEvent, JobHandle, JobState
from repro.service.ratelimit import RateLimiter

__all__ = [
    "JobManager",
    "QueueFull",
    "JobFailed",
    "JobCancelled",
    "UnknownJob",
]

_log = get_logger("service.manager")

# Service activity on the process metrics registry.  Every label series
# /metrics should always expose is pre-registered at zero below — a
# scrape right after startup sees the full catalogue, not just the
# series that happened to fire already.
_MET_SUBMISSIONS = REGISTRY.counter(
    "repro_service_submissions_total",
    "Job submissions by outcome (accepted, coalesced, rejected_queue_full, "
    "rejected_rate_limited)",
    labels=("outcome",),
)
_MET_JOBS = REGISTRY.counter(
    "repro_service_jobs_total",
    "Finished jobs by terminal state",
    labels=("state",),
)
_MET_RETRIES = REGISTRY.counter(
    "repro_service_retries_total",
    "Retry attempts by failure classification",
    labels=("classification",),
)
_MET_QUEUE_DEPTH = REGISTRY.gauge(
    "repro_service_queue_depth",
    "Jobs currently waiting in the bounded queue",
)
_MET_JOB_SECONDS = REGISTRY.histogram(
    "repro_service_job_seconds",
    "Wall-clock seconds from job start to terminal state",
)
for _outcome in ("accepted", "coalesced", "rejected_queue_full", "rejected_rate_limited"):
    _MET_SUBMISSIONS.inc(0, outcome=_outcome)
for _state in ("succeeded", "failed", "cancelled"):
    _MET_JOBS.inc(0, state=_state)
for _class in FailureClass:
    _MET_RETRIES.inc(0, classification=_class.value)


class QueueFull(RuntimeError):
    """The bounded job queue rejected a submission (backpressure)."""


class JobFailed(RuntimeError):
    """Awaited job ended FAILED; carries the recorded error."""

    def __init__(self, job_id: str, error: dict[str, Any] | None):
        message = (error or {}).get("message", "job failed")
        super().__init__(f"job {job_id} failed: {message}")
        self.job_id = job_id
        self.error = error


class JobCancelled(RuntimeError):
    """Awaited job ended CANCELLED."""

    def __init__(self, job_id: str):
        super().__init__(f"job {job_id} was cancelled")
        self.job_id = job_id


class UnknownJob(KeyError):
    """No job with the given id exists."""

    def __init__(self, job_id: str):
        super().__init__(f"unknown job {job_id!r}")
        self.job_id = job_id


def _error_record(exc: BaseException, rule_name: str, classification: str, attempts: int) -> dict[str, Any]:
    return {
        "type": type(exc).__name__,
        "message": str(exc),
        "rule": rule_name,
        "classification": classification,
        "attempts": attempts,
    }


class JobManager:
    """Async job API over the experiment registry and execution engine.

    Parameters
    ----------
    registry:
        Experiment registry (defaults to the analysis layer's
        ``EXPERIMENTS``); tests inject a private registry of fast fakes.
    workers:
        Concurrent jobs; also the size of the warm thread pool (at
        least 1, else ``ValueError``).
    queue_size:
        Bounded-queue capacity — queued jobs beyond the ones currently
        running (at least 1, else ``ValueError``).  Submissions past it
        raise :class:`QueueFull`.
    retry:
        :class:`RetryPolicy` for transient failures.
    classifier:
        :class:`FailureClassifier`; defaults to the built-in rules.
    limiter:
        Optional :class:`RateLimiter`; when set, every submission spends
        one token for its client (``None`` clients share "anonymous").
    engine_options:
        Keyword arguments for each job's ``ExecutionEngine`` — ``jobs``
        and ``use_cache``.  Each attempt gets a fresh
        engine (per-job stats stay clean) sharing one ``ResultCache``.
    sleep:
        Backoff sleeper (defaults to ``asyncio.sleep``); tests inject a
        recorder to assert delays without waiting.
    retry_seed:
        Seed for the jitter RNG — seeded tests get reproducible delays.
    """

    def __init__(
        self,
        registry=None,
        *,
        workers: int = 2,
        queue_size: int = 32,
        retry: RetryPolicy | None = None,
        classifier: FailureClassifier | None = None,
        limiter: RateLimiter | None = None,
        engine_options: dict[str, Any] | None = None,
        sleep: Callable[[float], Any] | None = None,
        retry_seed: int | None = None,
    ):
        if registry is None:
            from repro.analysis.registry import EXPERIMENTS as registry
        for name, value in (("workers", workers), ("queue_size", queue_size)):
            if value < 1:
                raise ValueError(f"{name} must be at least 1, got {value}")
        self.registry = registry
        self.workers = workers
        self.queue_size = queue_size
        self.retry = retry if retry is not None else RetryPolicy()
        self.classifier = classifier if classifier is not None else FailureClassifier()
        self.limiter = limiter
        self.engine_options = dict(engine_options or {})
        self._sleep = sleep if sleep is not None else asyncio.sleep
        self._retry_rng = random.Random(retry_seed)
        # One cache instance shared by every job's engine: its on-disk
        # store is the second coalescing layer (identical re-submissions
        # after completion replay results instead of recomputing).
        self._cache = (
            ResultCache() if self.engine_options.get("use_cache", True) else None
        )
        self._keyer = self._cache if self._cache is not None else ResultCache()

        self._jobs: dict[str, Job] = {}
        self._active: dict[str, Job] = {}  # coalescing key -> live job
        self._queue: asyncio.Queue[Job] | None = None
        self._worker_tasks: list[asyncio.Task] = []
        self._pool: ThreadPoolExecutor | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._next_id = 0
        self.metrics: dict[str, int] = {
            "submitted": 0,
            "coalesced": 0,
            "succeeded": 0,
            "failed": 0,
            "cancelled": 0,
            "retries": 0,
            "rejected_queue_full": 0,
            "rejected_rate_limited": 0,
        }

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    @property
    def started(self) -> bool:
        return self._queue is not None

    async def start(self) -> None:
        """Create the queue and spin up the warm worker pool."""
        if self.started:
            return
        self._loop = asyncio.get_running_loop()
        self._queue = asyncio.Queue(maxsize=self.queue_size)
        self._pool = ThreadPoolExecutor(
            max_workers=self.workers, thread_name_prefix="repro-job"
        )
        self._worker_tasks = [
            asyncio.create_task(self._worker(), name=f"repro-worker-{i}")
            for i in range(self.workers)
        ]

    async def stop(self) -> None:
        """Cancel live jobs, stop the workers, drop the thread pool."""
        if not self.started:
            return
        for job in list(self._active.values()):
            job.cancel.cancel()
        for task in self._worker_tasks:
            task.cancel()
        await asyncio.gather(*self._worker_tasks, return_exceptions=True)
        self._worker_tasks = []
        if self._pool is not None:
            self._pool.shutdown(wait=False, cancel_futures=True)
            self._pool = None
        self._queue = None

    async def __aenter__(self) -> "JobManager":
        await self.start()
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.stop()

    # ------------------------------------------------------------------ #
    # Submission
    # ------------------------------------------------------------------ #
    def _parse(self, experiment: str, params: dict | None):
        """Resolve the experiment and parse its params: ``(spec, kwargs,
        coalescing key)``.  ``KeyError`` for an unknown experiment,
        ``ValueError`` for a bad param."""
        spec = self.registry.get(experiment)
        kwargs, _ignored = parse_runner_options(spec, params)
        key = self._keyer.key_for(f"service.{spec.name}", kwargs, code_version_token())
        return spec, kwargs, key

    def coalescing_key(self, experiment: str, params: dict | None = None) -> str:
        """The content-addressed identity of one submission.

        Same recipe as the engine cache — name + the runner's parsed
        kwargs + code version — so the key changes exactly when the
        computed numbers could.
        """
        return self._parse(experiment, params)[2]

    async def submit(
        self,
        experiment: str,
        params: dict | None = None,
        *,
        client: str | None = None,
    ) -> JobHandle:
        """Accept, coalesce, or reject one job submission.

        Raises ``KeyError`` (unknown experiment), ``ValueError`` (bad
        params), :class:`~repro.service.ratelimit.RateLimited`, or
        :class:`QueueFull`.
        """
        if not self.started:
            raise RuntimeError("JobManager.start() has not been called")
        spec, kwargs, key = self._parse(experiment, params)
        if self.limiter is not None:
            try:
                self.limiter.acquire(client or "anonymous")
            except Exception:
                self.metrics["rejected_rate_limited"] += 1
                _MET_SUBMISSIONS.inc(outcome="rejected_rate_limited")
                _log.warning(
                    "submission rejected (rate limited): %s client=%s",
                    spec.name,
                    client or "anonymous",
                )
                raise
        self.metrics["submitted"] += 1

        existing = self._active.get(key)
        if existing is not None:
            existing.submissions += 1
            self.metrics["coalesced"] += 1
            _MET_SUBMISSIONS.inc(outcome="coalesced")
            self._emit(existing, "coalesced", {"submissions": existing.submissions})
            return JobHandle(self, existing, coalesced=True)

        self._next_id += 1
        job = Job(
            id=f"j{self._next_id:06d}",
            experiment=spec.name,
            params=kwargs,
            key=key,
            client=client,
            done=asyncio.Event(),
        )
        try:
            self._queue.put_nowait(job)
        except asyncio.QueueFull:
            self.metrics["rejected_queue_full"] += 1
            _MET_SUBMISSIONS.inc(outcome="rejected_queue_full")
            _log.warning(
                "submission rejected (queue full, %d waiting): %s",
                self.queue_size,
                spec.name,
            )
            raise QueueFull(
                f"job queue is full ({self.queue_size} waiting); retry later"
            ) from None
        self._jobs[job.id] = job
        self._active[key] = job
        _MET_SUBMISSIONS.inc(outcome="accepted")
        _MET_QUEUE_DEPTH.set(self._queue.qsize())
        _log.info(
            "job %s accepted: %s trace_id=%s", job.id, spec.name, job.trace_id
        )
        self._set_state(job, JobState.QUEUED)
        return JobHandle(self, job, coalesced=False)

    # ------------------------------------------------------------------ #
    # Worker loop
    # ------------------------------------------------------------------ #
    async def _worker(self) -> None:
        while True:
            job = await self._queue.get()
            _MET_QUEUE_DEPTH.set(self._queue.qsize())
            try:
                if job.state is not JobState.CANCELLED:  # cancelled while queued
                    await self._run_job(job)
            finally:
                self._active.pop(job.key, None)
                self._queue.task_done()

    def _build_engine(self, job: Job) -> ExecutionEngine:
        options = dict(self.engine_options)
        use_cache = options.pop("use_cache", True)
        options.pop("cache", None)

        def report(snapshot: dict, _job=job) -> None:
            # Runs on the worker thread; hop to the loop.  The loop can
            # be gone during shutdown — drop the event, not the thread.
            try:
                self._loop.call_soon_threadsafe(
                    self._emit,
                    _job,
                    "progress",
                    {**snapshot, "trace_id": _job.trace_id},
                )
            except RuntimeError:
                pass

        return ExecutionEngine(
            use_cache=use_cache,
            cache=self._cache if use_cache else None,
            cancel=job.cancel,
            progress=report,
            **options,
        )

    @staticmethod
    def _invoke_runner(spec, engine: ExecutionEngine, params: dict) -> tuple[Any, str]:
        return spec.runner(engine, **params)

    def _engine_snapshot(
        self,
        engine: ExecutionEngine,
        marks: dict,
        trace_id: str | None = None,
    ) -> dict[str, Any]:
        """Per-job engine stats plus the cache traffic the job caused.

        The routing cache, the layout memo, the sample bank and the
        result cache are shared process-wide (that sharing is the point), so their
        traffic is read as a delta from the metrics-registry checkpoint
        ``marks`` taken at job start.  Concurrent jobs overlap in those
        deltas — they measure what happened *during* the job, which for
        capacity questions is the honest number.  Occupancy fields (``entries``,
        ``sources_computed``, ``bytes``) stay absolute.
        """
        from repro.analysis.reporting import cache_traffic

        stats = engine.stats
        snapshot = {
            "jobs": stats.jobs,
            "workers_used": stats.workers_used,
            "tasks_total": stats.tasks_total,
            "tasks_executed": stats.tasks_executed,
            "cache_hits": stats.cache_hits,
            "wall_seconds": stats.wall_seconds,
            "seconds_by_phase": dict(stats.seconds_by_phase),
            "unattributed_seconds": stats.unattributed_seconds,
            **cache_traffic(marks),
        }
        if self._cache is None:
            snapshot["result_cache"] = None
        if trace_id is not None:
            snapshot["trace_id"] = trace_id
        return snapshot

    async def _run_job(self, job: Job) -> None:
        spec = self.registry.get(job.experiment)
        job.started = time.time()
        # Shared-cache counters are cumulative across jobs; capture them
        # now so the job's snapshot reports its own delta (see
        # _engine_snapshot).
        marks = REGISTRY.checkpoint()
        attempt = 0
        while True:
            attempt += 1
            job.attempts = attempt
            self._set_state(job, JobState.RUNNING, attempt=attempt)
            engine = self._build_engine(job)
            try:
                result, text = await self._loop.run_in_executor(
                    self._pool,
                    partial(self._invoke_runner, spec, engine, job.params),
                )
            except asyncio.CancelledError:
                # The worker task itself was cancelled (manager.stop());
                # mark the job and let the cancellation propagate.
                job.cancel.cancel()
                job.engine_stats = self._engine_snapshot(
                    engine, marks, trace_id=job.trace_id
                )
                self._finish(job, JobState.CANCELLED)
                raise
            except BaseException as exc:  # noqa: BLE001 - classified below
                rule = self.classifier.classify(exc)
                job.engine_stats = self._engine_snapshot(
                    engine, marks, trace_id=job.trace_id
                )
                error = _error_record(exc, rule.name, rule.classification.value, attempt)
                if (
                    rule.classification is FailureClass.CANCELLED
                    or job.cancel.cancelled
                ):
                    self._finish(job, JobState.CANCELLED, error=error)
                    return
                if (
                    rule.classification is FailureClass.TRANSIENT
                    and attempt < self.retry.max_attempts
                ):
                    delay = self.retry.delay(attempt, self._retry_rng)
                    self.metrics["retries"] += 1
                    _MET_RETRIES.inc(classification=rule.classification.value)
                    _log.warning(
                        "job %s attempt %d failed (%s), retrying in %.2fs: %s",
                        job.id,
                        attempt,
                        rule.name,
                        delay,
                        exc,
                    )
                    self._set_state(
                        job,
                        JobState.RETRYING,
                        attempt=attempt,
                        delay=delay,
                        rule=rule.name,
                        failure=f"{type(exc).__name__}: {exc}",
                    )
                    await self._sleep(delay)
                    if job.cancel.cancelled:  # cancelled during backoff
                        self._finish(job, JobState.CANCELLED, error=error)
                        return
                    continue
                self._finish(job, JobState.FAILED, error=error)
                return
            else:
                job.result = result
                job.text = text
                job.engine_stats = self._engine_snapshot(
                    engine, marks, trace_id=job.trace_id
                )
                self._finish(job, JobState.SUCCEEDED)
                return

    # ------------------------------------------------------------------ #
    # State/event plumbing (event-loop thread only)
    # ------------------------------------------------------------------ #
    def _emit(self, job: Job, kind: str, payload: dict[str, Any]) -> None:
        event = JobEvent(
            sequence=len(job.events),
            kind=kind,
            payload=payload,
            timestamp=time.time(),
        )
        job.events.append(event)
        for queue in list(job.watchers):
            queue.put_nowait(event)

    def _set_state(self, job: Job, state: JobState, **payload: Any) -> None:
        job.state = state
        self._emit(job, "state", {"state": state.value, **payload})

    def _finish(
        self, job: Job, state: JobState, error: dict[str, Any] | None = None
    ) -> None:
        if job.terminal:
            return
        job.finished = time.time()
        if error is not None:
            job.error = error
        counter = {
            JobState.SUCCEEDED: "succeeded",
            JobState.FAILED: "failed",
            JobState.CANCELLED: "cancelled",
        }[state]
        self.metrics[counter] += 1
        _MET_JOBS.inc(state=counter)
        if job.started is not None:
            _MET_JOB_SECONDS.observe(job.finished - job.started)
        log = _log.info if state is JobState.SUCCEEDED else _log.warning
        log(
            "job %s %s after %d attempt(s) trace_id=%s%s",
            job.id,
            counter,
            job.attempts,
            job.trace_id,
            f" ({(error or {}).get('message')})" if error else "",
        )
        self._active.pop(job.key, None)
        self._set_state(job, state, **({"error": error} if error else {}))
        if job.done is not None:
            job.done.set()

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #
    def _get(self, job_id: str) -> Job:
        job = self._jobs.get(job_id)
        if job is None:
            raise UnknownJob(job_id)
        return job

    def jobs(self) -> list[Job]:
        """Every job this manager has accepted, in submission order."""
        return list(self._jobs.values())

    def status(self, job_id: str) -> dict[str, Any]:
        """JSON-ready snapshot of one job."""
        from repro.analysis.reporting import jsonable

        job = self._get(job_id)
        return {
            "id": job.id,
            "experiment": job.experiment,
            "params": jsonable(job.params),
            "trace_id": job.trace_id,
            "state": job.state.value,
            "submissions": job.submissions,
            "attempts": job.attempts,
            "created": job.created,
            "started": job.started,
            "finished": job.finished,
            "error": job.error,
            "engine": job.engine_stats,
            "events": len(job.events),
        }

    async def wait(self, job_id: str, timeout: float | None = None) -> Job:
        """Block until the job is terminal (``asyncio.TimeoutError`` after
        ``timeout`` seconds)."""
        job = self._get(job_id)
        if not job.terminal:
            await asyncio.wait_for(job.done.wait(), timeout)
        return job

    async def result(
        self, job_id: str, timeout: float | None = None
    ) -> tuple[Any, str]:
        """The job's ``(result, text)``; raises :class:`JobFailed` /
        :class:`JobCancelled` on the unhappy endings."""
        job = await self.wait(job_id, timeout=timeout)
        if job.state is JobState.SUCCEEDED:
            return job.result, job.text
        if job.state is JobState.CANCELLED:
            raise JobCancelled(job.id)
        raise JobFailed(job.id, job.error)

    async def cancel(self, job_id: str) -> bool:
        """Request cancellation; True when the job was still live.

        Queued jobs finish immediately; running jobs stop at the next
        batch/call boundary inside the engine and settle CANCELLED from
        the worker loop.
        """
        job = self._get(job_id)
        if job.terminal:
            return False
        job.cancel.cancel()
        if job.state is JobState.QUEUED:
            self._finish(job, JobState.CANCELLED)
        else:
            self._emit(job, "cancel-requested", {})
        return True

    async def events(self, job_id: str) -> AsyncIterator[JobEvent]:
        """Replay a job's event log, then stream live until terminal."""
        job = self._get(job_id)
        queue: asyncio.Queue[JobEvent] = asyncio.Queue()
        job.watchers.append(queue)
        try:
            seen = 0
            for event in list(job.events):
                yield event
                seen = event.sequence + 1
            if job.terminal:
                return
            while True:
                event = await queue.get()
                if event.sequence < seen:
                    continue  # duplicated by the replay above
                yield event
                if event.kind == "state" and event.payload.get("state") in {
                    state.value for state in TERMINAL_STATES
                }:
                    return
        finally:
            job.watchers.remove(queue)

    def stats(self) -> dict[str, Any]:
        """Service-level counters plus queue occupancy.

        ``seconds_by_phase`` aggregates the per-phase wall-clock buckets
        (see :mod:`repro.engine.phases`) over every job the manager still
        knows about, so ``/stats`` can attribute service time to
        sample/mask/repair/compile/score without walking individual jobs.
        ``sample_bank`` is the process-wide common-random-number bank
        (:mod:`repro.core.sample_bank`): lifetime counters plus current
        occupancy, complementing the per-job deltas each job snapshot
        carries.
        """
        seconds_by_phase: dict[str, float] = {}
        for job in self._jobs.values():
            snapshot = job.engine_stats or {}
            for name, seconds in (snapshot.get("seconds_by_phase") or {}).items():
                seconds_by_phase[name] = seconds_by_phase.get(name, 0.0) + seconds
        return {
            **self.metrics,
            "jobs_known": len(self._jobs),
            "jobs_active": len(self._active),
            "queue_size": self.queue_size,
            "queue_used": self._queue.qsize() if self._queue is not None else 0,
            "workers": self.workers,
            "seconds_by_phase": seconds_by_phase,
            "sample_bank": sample_bank_stats(),
        }
