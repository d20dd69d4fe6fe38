"""The executor duck-type in one place.

Sweep entry points across the package accept an optional ``executor``
(anything implementing ``map_calls``) and fall back to an in-process
loop.  :func:`run_calls` is that dispatch, shared so the hook contract
changes in exactly one spot.  Like :mod:`repro.engine.seeding`, this
module depends on nothing, so ``core`` can import it without coupling to
the runner/cache machinery.
"""

from __future__ import annotations

from typing import Any, Callable, Sequence

__all__ = ["run_calls"]


def run_calls(
    fn: Callable[..., Any],
    kwargs_list: Sequence[dict[str, Any]],
    executor=None,
    name: str = "task",
) -> list[Any]:
    """``[fn(**kw) for kw in kwargs_list]``, through ``executor`` if given."""
    if executor is None:
        return [fn(**kwargs) for kwargs in kwargs_list]
    return executor.map_calls(fn, kwargs_list, name=name)
