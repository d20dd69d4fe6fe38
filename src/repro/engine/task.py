"""Task and task-graph abstractions for the experiment engine.

A :class:`Task` is one picklable unit of work: a module-level function plus
keyword arguments.  A :class:`TaskGraph` groups tasks with dependencies and
yields *generations* — maximal sets of tasks whose dependencies are all
satisfied — so the runner can execute each generation in parallel while
respecting ordering between generations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Mapping

__all__ = ["Task", "TaskGraph"]


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
    cacheable:
        Opt out of the on-disk cache for tasks whose results are too large
        or too cheap to be worth persisting.
    inject:
        Mapping ``param_name -> dependency task id``; when the task runs as
        part of a :class:`TaskGraph`, the dependency's *result* is injected
        under ``param_name`` before invocation.  Injected values do not
        contribute to the cache key (the dependency's own key already
        covers them), so graph tasks with injections are not cached.
    """

    name: str
    fn: Callable[..., Any]
    params: Mapping[str, Any] = field(default_factory=dict)
    cacheable: bool = True
    inject: Mapping[str, str] = field(default_factory=dict)

    def run(self, dep_results: Mapping[str, Any] | None = None) -> Any:
        """Execute the task in the current process."""
        kwargs = dict(self.params)
        if self.inject:
            if dep_results is None:
                raise ValueError(f"task {self.name!r} needs dependency results")
            for param, dep_id in self.inject.items():
                kwargs[param] = dep_results[dep_id]
        return self.fn(**kwargs)


class TaskGraph:
    """A DAG of named tasks executed generation by generation."""

    def __init__(self) -> None:
        self._tasks: dict[str, Task] = {}
        self._deps: dict[str, tuple[str, ...]] = {}

    def add(self, task_id: str, task: Task, deps: tuple[str, ...] = ()) -> str:
        """Register ``task`` under ``task_id`` with explicit dependencies.

        Dependencies named in ``task.inject`` are added automatically.
        """
        if task_id in self._tasks:
            raise ValueError(f"duplicate task id {task_id!r}")
        all_deps = tuple(dict.fromkeys((*deps, *task.inject.values())))
        for dep in all_deps:
            if dep not in self._tasks:
                raise ValueError(f"task {task_id!r} depends on unknown {dep!r}")
        self._tasks[task_id] = task
        self._deps[task_id] = all_deps
        return task_id

    def __len__(self) -> int:
        return len(self._tasks)

    def __contains__(self, task_id: str) -> bool:
        return task_id in self._tasks

    def task(self, task_id: str) -> Task:
        """The task registered under ``task_id``."""
        return self._tasks[task_id]

    def dependencies(self, task_id: str) -> tuple[str, ...]:
        """Dependency ids of one task."""
        return self._deps[task_id]

    def generations(self) -> list[list[str]]:
        """Topological generations: each is runnable once the previous done.

        Insertion order is preserved inside every generation so results are
        deterministic regardless of dict/hash behaviour.
        """
        remaining = dict(self._deps)
        done: set[str] = set()
        generations: list[list[str]] = []
        while remaining:
            ready = [tid for tid, deps in remaining.items() if all(d in done for d in deps)]
            if not ready:
                raise ValueError(f"dependency cycle among {sorted(remaining)}")
            generations.append(ready)
            done.update(ready)
            for tid in ready:
                del remaining[tid]
        return generations
