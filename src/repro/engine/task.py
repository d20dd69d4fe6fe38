"""The task abstraction of the experiment engine.

A :class:`Task` is one picklable unit of work: a module-level function plus
keyword arguments.  The runner executes batches of independent tasks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Mapping

__all__ = ["Task"]


@dataclass(frozen=True)
class Task:
    """One unit of work for the engine.

    Attributes
    ----------
    name:
        Task-family name (e.g. ``"fig4.point"``); part of the cache key and
        of the instrumentation break-down.
    fn:
        Module-level callable invoked as ``fn(**params)``.  It must be
        picklable for the process pool; closures and lambdas run
        in-process instead.
    params:
        Keyword arguments.  Values become part of the cache key via
        :func:`repro.engine.cache.stable_token`.
    """

    name: str
    fn: Callable[..., Any]
    params: Mapping[str, Any] = field(default_factory=dict)
