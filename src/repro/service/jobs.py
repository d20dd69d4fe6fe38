"""Job records for the reproduction service.

A :class:`Job` is one experiment computation owned by the
:class:`~repro.service.manager.JobManager`: it carries the parsed
runner keyword arguments, the coalescing key, the lifecycle state machine
(``QUEUED -> RUNNING [-> RETRYING -> RUNNING]* -> SUCCEEDED | FAILED |
CANCELLED``), an append-only event log that the streaming endpoints
replay, and the :class:`~repro.engine.backends.CancelToken` that
propagates cancellation down into the engine's execution paths.

A :class:`JobHandle` is what ``submit()`` returns: a thin client-side
view of a job.  Several handles may share one job — that is request
coalescing — and each handle remembers whether *its* submission started
the computation or attached to an in-flight one.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from enum import Enum
from typing import TYPE_CHECKING, Any

from repro.engine.backends import CancelToken
from repro.obs.tracing import new_id

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    import asyncio

    from repro.service.manager import JobManager

__all__ = ["JobState", "JobEvent", "Job", "JobHandle", "TERMINAL_STATES"]


class JobState(str, Enum):
    """Lifecycle states of a service job."""

    QUEUED = "queued"
    RUNNING = "running"
    RETRYING = "retrying"
    SUCCEEDED = "succeeded"
    FAILED = "failed"
    CANCELLED = "cancelled"


#: States a job never leaves once entered.
TERMINAL_STATES = frozenset(
    {JobState.SUCCEEDED, JobState.FAILED, JobState.CANCELLED}
)


@dataclass(frozen=True)
class JobEvent:
    """One entry of a job's append-only event log.

    ``sequence`` is the position in the log (dense, starting at 0) so
    stream consumers that replay history and then switch to live events
    can deduplicate at the boundary.
    """

    sequence: int
    kind: str  # "state" | "progress" | "coalesced" | "cancel-requested"
    payload: dict[str, Any]
    timestamp: float


@dataclass
class Job:
    """One experiment computation and everything observed about it."""

    id: str
    experiment: str
    params: dict[str, Any]
    key: str  # coalescing key (content-addressed, see JobManager)
    #: Correlation id for this job's computation: surfaced in status
    #: snapshots, SSE progress events and log lines, so one job's
    #: activity can be stitched together across endpoints and processes.
    trace_id: str = field(default_factory=lambda: new_id(16))
    client: str | None = None
    state: JobState = JobState.QUEUED
    submissions: int = 1  # submitters sharing this computation
    attempts: int = 0
    created: float = field(default_factory=time.time)
    started: float | None = None
    finished: float | None = None
    result: Any = None
    text: str | None = None
    error: dict[str, Any] | None = None
    engine_stats: dict[str, Any] | None = None
    events: list[JobEvent] = field(default_factory=list)
    cancel: CancelToken = field(default_factory=CancelToken)
    #: Live event-stream subscribers (one asyncio.Queue per watcher).
    watchers: list = field(default_factory=list)
    #: Set exactly once, when the job reaches a terminal state.
    done: "asyncio.Event | None" = None

    @property
    def terminal(self) -> bool:
        return self.state in TERMINAL_STATES


class JobHandle:
    """A submitter's view of a (possibly shared) job."""

    def __init__(self, manager: "JobManager", job: Job, coalesced: bool):
        self._manager = manager
        self._job = job
        self.coalesced = coalesced

    @property
    def id(self) -> str:
        return self._job.id

    @property
    def state(self) -> JobState:
        return self._job.state

    @property
    def job(self) -> Job:
        return self._job

    def status(self) -> dict[str, Any]:
        """JSON-ready snapshot of the job (see ``JobManager.status``)."""
        return self._manager.status(self._job.id)

    async def wait(self, timeout: float | None = None) -> Job:
        """Block until the job reaches a terminal state."""
        return await self._manager.wait(self._job.id, timeout=timeout)

    async def result(self, timeout: float | None = None) -> tuple[Any, str]:
        """The job's ``(result, text)``; raises on failure/cancellation."""
        return await self._manager.result(self._job.id, timeout=timeout)

    async def cancel(self) -> bool:
        """Request cancellation; True when the job was still cancellable."""
        return await self._manager.cancel(self._job.id)
