"""Timing shims for the traced run.

The traced run wraps named public functions and methods of ``repro``
with thin timing functions installed from this file; nothing under
``src/`` changes.  Each call records one span (name, layer, start,
duration, the enclosing shim span on the same thread) in memory, and an
optional ``after`` hook books the layer's counts (dies screened, dies
repaired, searches that failed, ...).

A function is patched at every ``repro`` module that binds it, so
``from x import f`` call sites are traced too.  The wrappers have no
closure and carry ``__wrapped__``: the engine's result cache treats a
wrapped task function exactly like the original (same source, same
cache key), so tracing does not change which tasks replay.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import os
import sys
import threading
import time
import types
from collections import defaultdict
from dataclasses import dataclass
from typing import Any, Callable

__all__ = ["Site", "SITES", "SpanRecorder"]


def _arg(args: tuple, kwargs: dict, index: int, name: str, default: Any = None) -> Any:
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _count_dies(counts, args, kwargs, result) -> None:
    counts["core.collisions.dies"] += len(_arg(args, kwargs, 1, "frequencies"))


def _count_repair(counts, args, kwargs, result) -> None:
    collided = ~result.as_fab_mask
    counts["tuning.repair.dies"] += int(collided.sum())
    counts["tuning.repair.repaired"] += int((result.final_mask & collided).sum())


def _count_search(counts, args, kwargs, result) -> None:
    counts["compiler.layout.search_calls"] += 1
    counts["compiler.layout.search_fails"] += result is None


def _count_gates(counts, args, kwargs, result) -> None:
    metrics = args[1].metrics  # (self, context)
    counts["compiler.gates_out"] += metrics.num_one_qubit + metrics.num_two_qubit


def _count_tasks(counts, args, kwargs, result) -> None:
    counts["engine.tasks"] += len(result)


def _count_lookup(counts, args, kwargs, result) -> None:
    counts["engine.cache.lookups"] += 1
    counts["engine.cache.hits"] += result is not _arg(args, kwargs, 2, "default")


@dataclass(frozen=True)
class Site:
    """One traced entry point: ``module:qualname`` recorded under ``layer``."""

    module: str
    qualname: str
    layer: str
    after: Callable[[dict, tuple, dict, Any], None] | None = None


#: Every traced entry point, grouped by the layer it is booked to.
SITES = (
    Site("repro.core.fabrication", "FabricationModel.sample_batch", "core.fabrication"),
    Site("repro.core.collisions", "collision_free_mask", "core.collisions", _count_dies),
    Site("repro.core.assembly", "fabricate_chiplet_bin", "core.assembly"),
    Site("repro.core.assembly", "assemble_mcms", "core.assembly"),
    Site("repro.tuning.repair", "repair_batch", "tuning.repair", _count_repair),
    Site("repro.analysis.study", "compute_chiplet_bin", "analysis.study"),
    Site("repro.analysis.study", "compute_mcm_result", "analysis.study"),
    Site("repro.analysis.study", "compute_monolithic_result", "analysis.study"),
    Site("repro.compiler.pipeline", "LayoutPass.run", "compiler.layout"),
    Site("repro.compiler.layout", "find_long_path", "compiler.layout", _count_search),
    Site("repro.compiler.pipeline", "DecomposePass.run", "compiler.decompose"),
    Site("repro.compiler.pipeline", "RoutePass.run", "compiler.route"),
    Site("repro.compiler.pipeline", "SwapExpandPass.run", "compiler.swap_expand"),
    Site("repro.compiler.pipeline", "MetricsPass.run", "compiler.metrics", _count_gates),
    Site("repro.simulation.esp", "fidelity_product", "simulation.esp"),
    Site("repro.engine.runner", "ExecutionEngine.run_tasks", "engine", _count_tasks),
    Site("repro.engine.cache", "ResultCache.get", "engine.cache.get", _count_lookup),
    Site("repro.engine.cache", "ResultCache.put", "engine.cache.put"),
)


def _template(*args, **kwargs):
    return _RECORD(_TARGET, _SITE, args, kwargs)  # noqa: F821 - bound per wrapper


class SpanRecorder:
    """Installs the shims and keeps their spans and counts in memory.

    Span records use the field names of :mod:`repro.obs.tracing`, so the
    public :mod:`repro.obs.export` writers accept them; ``ts`` and
    ``dur`` are ``time.perf_counter`` seconds.
    """

    def __init__(self, sites=SITES):
        self.sites = sites
        self.spans: list[dict] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: list[tuple[Any, str, Any]] = []

    # -- recording ------------------------------------------------------ #
    def _record(self, fn, site: Site, args: tuple, kwargs: dict):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        record = {
            "name": site.qualname,
            "id": str(next(self._ids)),
            "parent": stack[-1]["id"] if stack else None,
            "pid": os.getpid(),
            "tid": threading.get_ident(),
            "attrs": {"layer": site.layer},
        }
        stack.append(record)
        record["ts"] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            record["dur"] = time.perf_counter() - record["ts"]
            stack.pop()
            self.spans.append(record)
        if site.after is not None:
            with self._lock:
                site.after(self.counts, args, kwargs, result)
        return result

    def _wrapper(self, fn, site: Site):
        namespace = {"_RECORD": self._record, "_TARGET": fn, "_SITE": site}
        wrapper = types.FunctionType(_template.__code__, namespace, fn.__name__)
        return functools.update_wrapper(wrapper, fn)

    # -- installation --------------------------------------------------- #
    def install(self) -> None:
        """Patch every site (idempotent per install/uninstall pair)."""
        if self._patches:
            return
        for site in self.sites:
            module = importlib.import_module(site.module)
            owner_name, _, attr = site.qualname.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name)
                original = owner.__dict__[attr]
                self._patch(owner, attr, original, self._wrapper(original, site))
                continue
            original = getattr(module, attr)
            wrapper = self._wrapper(original, site)
            for name, loaded in list(sys.modules.items()):
                if not (name == "repro" or name.startswith("repro.")) or loaded is None:
                    continue
                for binding, value in list(vars(loaded).items()):
                    if value is original:
                        self._patch(loaded, binding, original, wrapper)

    def _patch(self, owner, attr: str, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        """Restore every patched binding."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
