"""Generic parameter-sweep helpers used by the ablation benchmarks.

Both helpers accept an ``executor`` (any object with ``map_calls``, i.e. a
:class:`repro.engine.ExecutionEngine`) to fan the sweep out over worker
processes, and a ``seed``: when given, every combination receives its own
positionally-derived child seed as a ``seed=`` keyword argument, making
sweeps reproducible end-to-end and independent of execution order.
"""

from __future__ import annotations

import inspect
from itertools import product
from typing import Callable, Iterable, Mapping, Sequence

from repro.engine.dispatch import run_calls
from repro.engine.seeding import spawn_seeds as _child_seeds

__all__ = ["grid_sweep", "sweep_parameter"]


def grid_sweep(
    parameter_grid: Mapping[str, Sequence[object]],
    runner: Callable[..., object],
    seed: int | None = None,
    executor=None,
    name: str = "grid_sweep",
    share_draws: Sequence[str] = (),
) -> list[dict]:
    """Run ``runner`` for every combination of the parameter grid.

    Parameters
    ----------
    parameter_grid:
        Mapping from keyword-argument name to the values to sweep.
    runner:
        Callable invoked with one keyword argument per grid dimension
        (plus ``seed`` when a master seed is given).
    seed:
        Master seed; each combination gets its own child seed passed as a
        ``seed=`` keyword (the runner must accept it).
    executor:
        Optional engine hook; ``runner`` must then be picklable
        (module-level) for the process pool.
    name:
        Task-family label for instrumentation and caching.
    share_draws:
        Grid dimensions excluded from seed derivation: combinations that
        differ only along these dimensions receive the *same* child seed,
        so a seeded Monte-Carlo runner compares them on identical draws
        (common random numbers) — and, for fabrication runners, the
        sample bank (:mod:`repro.core.sample_bank`) turns the repeats
        into cache hits.  The empty default derives one seed per
        combination, exactly the historical behavior.

    Returns
    -------
    list of dict
        One record per combination with the parameter values plus a
        ``"result"`` key holding the runner's return value.
    """
    names = list(parameter_grid)
    if seed is not None and "seed" in names:
        raise ValueError(
            "'seed' cannot be both a grid dimension and a derived master "
            "seed; drop one of the two"
        )
    unknown = [dim for dim in share_draws if dim not in names]
    if unknown:
        raise ValueError(
            f"share_draws names {unknown!r} that are not grid dimensions "
            f"(grid has {names!r})"
        )
    combos = list(product(*(parameter_grid[name] for name in names)))
    if share_draws:
        # Seed identity = the combination restricted to the non-shared
        # dimensions, numbered in first-appearance order so the mapping
        # is independent of which dimensions are shared.
        keep = [name for name in names if name not in share_draws]
        reduced_index: dict[tuple, int] = {}
        reduced_of = []
        for values in combos:
            key = tuple(v for n, v in zip(names, values) if n in keep)
            reduced_of.append(reduced_index.setdefault(key, len(reduced_index)))
        base_seeds = _child_seeds(seed, len(reduced_index))
        seeds = [base_seeds[index] for index in reduced_of]
    else:
        seeds = _child_seeds(seed, len(combos))
    kwargs_list = []
    for values, child_seed in zip(combos, seeds):
        kwargs = dict(zip(names, values))
        if seed is not None:
            kwargs["seed"] = child_seed
        kwargs_list.append(kwargs)
    # Unseeded sweeps may be stochastic without the engine knowing — keep
    # them out of the cache.
    results = run_calls(
        runner, kwargs_list, executor=executor, name=name, cacheable=seed is not None
    )
    return [
        {**kwargs, "result": result} for kwargs, result in zip(kwargs_list, results)
    ]


def sweep_parameter(
    values: Iterable[object],
    runner: Callable[..., object],
    seed: int | None = None,
    executor=None,
    name: str = "sweep_parameter",
    share_draws: bool = False,
) -> list[tuple[object, object]]:
    """One-dimensional sweep returning ``(value, result)`` pairs.

    With a ``seed``, the runner is called as ``runner(value, seed=child)``;
    with an ``executor`` the points run through the engine (the value is
    passed under the runner's first parameter name, so any one-argument
    module-level runner works unchanged).  ``share_draws=True`` hands
    every value the *same* derived child seed — the swept parameter is
    the shared-draw axis, so a Monte-Carlo runner compares all values on
    identical draws and the sample bank collapses the repeats into one
    sampling pass.
    """
    values = list(values)
    if share_draws:
        seeds = [_child_seeds(seed, 1)[0]] * len(values)
    else:
        seeds = _child_seeds(seed, len(values))
    if executor is None:
        if seed is None:
            return [(value, runner(value)) for value in values]
        return [
            (value, runner(value, seed=child))
            for value, child in zip(values, seeds)
        ]
    try:
        first = next(iter(inspect.signature(runner).parameters.values()))
        if first.kind is inspect.Parameter.POSITIONAL_ONLY:
            raise ValueError
        value_param = first.name
    except (ValueError, TypeError, StopIteration):
        raise ValueError(
            "executor-backed sweeps call the runner by keyword; wrap "
            f"{runner!r} in a module-level function with named parameters"
        ) from None
    if seed is not None and value_param == "seed":
        raise ValueError(
            "the runner's first parameter is named 'seed', which collides "
            "with the derived child seed; rename it or drop the master seed"
        )
    kwargs_list = []
    for value, child in zip(values, seeds):
        kwargs = {value_param: value}
        if seed is not None:
            kwargs["seed"] = child
        kwargs_list.append(kwargs)
    results = run_calls(
        runner, kwargs_list, executor=executor, name=name, cacheable=seed is not None
    )
    return list(zip(values, results))
