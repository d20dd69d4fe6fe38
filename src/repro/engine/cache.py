"""The package's two cache kinds: on-disk results and in-process memos.

:class:`ResultCache` is the on-disk content-addressed result cache for
engine tasks.  :class:`BoundedLRU` is the one in-process memo every
other cache is built on (routing weights, layout placements, lattices,
frequency allocations).

Results are keyed on ``(task name, parameters, code version)`` — the seed
is one of the parameters, so the same experiment at a different seed is a
different cache entry.  The code version combines ``repro.__version__``,
a digest of every ``repro`` source file (computed once per process), and
a hash of the task function's own source — so editing *any* code the
package ships, including the models a task calls into, invalidates
cached results rather than silently serving stale numbers.

Values are stored as pickle files named after the SHA-256 of the key,
written atomically (temp file + rename) so concurrent workers never
observe a half-written entry.
"""

from __future__ import annotations

import hashlib
import inspect
import os
import pickle
import sys
import tempfile
import threading
from collections import OrderedDict
from dataclasses import is_dataclass, fields
from functools import lru_cache
from pathlib import Path
from typing import Any, Callable, Hashable

import numpy as np

import repro
from repro.obs.logs import get_logger
from repro.obs.metrics import REGISTRY

__all__ = [
    "BoundedLRU",
    "ResultCache",
    "stable_token",
    "code_version_token",
    "default_cache_dir",
]

_log = get_logger("engine.cache")

#: Cache traffic by outcome: ``hit``, ``miss``, or ``poisoned_unlink``
#: (an entry that existed but could not be unpickled and was deleted).
_EVENTS = REGISTRY.counter(
    "repro_result_cache_events_total",
    "ResultCache lookups by outcome (hit, miss, poisoned_unlink)",
    labels=("event",),
)

#: Environment variable overriding the cache location.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"


def default_cache_dir() -> Path:
    """`$REPRO_CACHE_DIR` when set, else ``.repro_cache/`` in the CWD."""
    env = os.environ.get(CACHE_DIR_ENV)
    return Path(env) if env else Path.cwd() / ".repro_cache"


def stable_token(value: Any) -> str:
    """A stable textual token for a parameter value.

    Primitives render literally; containers recurse with sorted dict keys;
    numpy arrays hash their bytes; dataclasses recurse over their fields;
    anything else falls back to a hash of its pickle serialisation.
    """
    if value is None or isinstance(value, (bool, int, str)):
        return repr(value)
    if isinstance(value, float):
        return repr(float(value))
    if isinstance(value, (list, tuple)):
        inner = ",".join(stable_token(v) for v in value)
        return f"[{inner}]" if isinstance(value, list) else f"({inner})"
    if isinstance(value, dict):
        inner = ",".join(
            f"{stable_token(k)}:{stable_token(v)}" for k, v in sorted(value.items(), key=repr)
        )
        return f"{{{inner}}}"
    if isinstance(value, np.ndarray):
        digest = hashlib.sha256(np.ascontiguousarray(value).tobytes()).hexdigest()[:16]
        return f"ndarray({value.dtype},{value.shape},{digest})"
    if is_dataclass(value) and not isinstance(value, type):
        # compare=False fields are internal state (lazy caches, derived
        # values) — two logically equal instances may differ there, so
        # they must not influence the key.
        inner = ",".join(
            f"{f.name}={stable_token(getattr(value, f.name))}"
            for f in fields(value)
            if f.compare
        )
        return f"{type(value).__name__}({inner})"
    digest = hashlib.sha256(pickle.dumps(value, protocol=4)).hexdigest()[:16]
    return f"{type(value).__name__}#{digest}"


@lru_cache(maxsize=1)
def _package_source_digest() -> str:
    """Digest of the ``repro`` sources plus the numerical environment.

    Conservative by design: a task's results can depend on any module it
    calls into, so any package edit invalidates the whole cache — as does
    a Python or numpy upgrade, whose numerical behaviour (generator
    streams, percentile interpolation) task results silently inherit.
    """
    package_root = Path(repro.__file__).parent
    digest = hashlib.sha256()
    digest.update(
        f"py{sys.version_info[0]}.{sys.version_info[1]}:np{np.__version__}".encode()
    )
    for path in sorted(package_root.rglob("*.py")):
        digest.update(str(path.relative_to(package_root)).encode())
        try:
            digest.update(path.read_bytes())
        except OSError:
            continue
    return digest.hexdigest()[:12]


@lru_cache(maxsize=512)
def code_version_token(fn: Callable[..., Any] | None = None) -> str:
    """Package version + package-source digest + the task's own source hash.

    Memoized per function: the token only changes with the installed
    sources, which cannot change within a process's lifetime.
    """
    token = f"{repro.__version__}:{_package_source_digest()}"
    if fn is not None:
        try:
            source = inspect.getsource(fn)
        except (OSError, TypeError):
            source = getattr(fn, "__qualname__", repr(fn))
        token += ":" + hashlib.sha256(source.encode()).hexdigest()[:12]
    return token


class ResultCache:
    """Pickle-backed result store addressed by content key.

    Lookups are counted only in the metrics registry, as
    ``repro_result_cache_events_total{event}``.

    Parameters
    ----------
    directory:
        Cache root (created lazily on first write).
    """

    def __init__(self, directory: str | Path | None = None):
        self.directory = Path(directory) if directory is not None else default_cache_dir()

    # ------------------------------------------------------------------ #
    # Keys
    # ------------------------------------------------------------------ #
    def key_for(
        self,
        name: str,
        params: dict[str, Any] | None = None,
        code_version: str | None = None,
    ) -> str:
        """SHA-256 key for one (name, params, code version) combination."""
        payload = "|".join(
            (
                name,
                stable_token(dict(params or {})),
                code_version if code_version is not None else code_version_token(),
            )
        )
        return hashlib.sha256(payload.encode()).hexdigest()

    def _path(self, key: str) -> Path:
        return self.directory / f"{key}.pkl"

    # ------------------------------------------------------------------ #
    # Storage
    # ------------------------------------------------------------------ #
    def contains(self, key: str) -> bool:
        """True when an entry exists for ``key``."""
        return self._path(key).exists()

    def get(self, key: str, default: Any = None) -> Any:
        """Load a cached value (``default`` on miss or unreadable entry).

        An entry that exists but cannot be unpickled (truncated write,
        disk corruption, a stale class rename) is *deleted*, not just
        skipped: leaving it in place would make ``contains()`` keep
        answering True while every future ``get()`` re-fails on the same
        poisoned bytes, so the slot could never heal.
        """
        path = self._path(key)
        try:
            with path.open("rb") as handle:
                value = pickle.load(handle)
        except FileNotFoundError:
            _EVENTS.inc(event="miss")
            return default
        except Exception as exc:
            # The entry exists but cannot be read — unlink it so the next
            # run recomputes and rewrites the slot instead of re-failing
            # on the same poisoned bytes forever.
            poisoned = False
            try:
                path.unlink(missing_ok=True)
                poisoned = True
            except OSError:
                pass
            _EVENTS.inc(event="miss")
            if poisoned:
                _EVENTS.inc(event="poisoned_unlink")
                _log.warning(
                    "unlinked poisoned cache entry %s (%s: %s)",
                    path.name,
                    type(exc).__name__,
                    exc,
                )
            return default
        _EVENTS.inc(event="hit")
        return value

    def put(self, key: str, value: Any) -> None:
        """Store ``value`` under ``key`` atomically."""
        self.directory.mkdir(parents=True, exist_ok=True)
        fd, tmp_name = tempfile.mkstemp(dir=self.directory, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as handle:
                pickle.dump(value, handle, protocol=4)
            os.replace(tmp_name, self._path(key))
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise

    def clear(self) -> int:
        """Delete every entry; returns the number of entries removed."""
        removed = 0
        if self.directory.exists():
            for path in self.directory.glob("*.pkl"):
                path.unlink(missing_ok=True)
                removed += 1
        return removed

    def __len__(self) -> int:
        if not self.directory.exists():
            return 0
        return sum(1 for _ in self.directory.glob("*.pkl"))


#: The :meth:`BoundedLRU.stats` key each counted event is reported under.
LRU_STAT_KEYS = {"hit": "hits", "miss": "misses", "eviction": "evictions"}


class BoundedLRU:
    """Thread-safe least-recently-used memo of at most ``capacity`` entries.

    An insert into a full memo evicts the least recently used entry.
    Values are built outside the lock, so a slow build never
    blocks other lookups; if two threads race to build one key, the
    first value stored wins and is what both callers get.

    Every event (``hit``, ``miss``, ``eviction``) is counted in
    :meth:`stats` for this process and in the registry counter
    ``metric``, whose worker-process deltas the engine merges home.
    """

    def __init__(self, capacity: int, metric: str, help: str = "") -> None:
        if capacity < 0:
            raise ValueError("capacity must be non-negative")
        self.capacity = capacity
        self._entries: OrderedDict[Hashable, Any] = OrderedDict()
        self._lock = threading.Lock()
        self._counts = dict.fromkeys(LRU_STAT_KEYS.values(), 0)
        self._events = REGISTRY.counter(metric, help, labels=("event",))

    def _bump(self, event: str) -> None:
        # Caller holds self._lock.
        self._counts[LRU_STAT_KEYS[event]] += 1
        self._events.inc(event=event)

    def get_or_build(self, key: Hashable, build: Callable[[], Any]) -> Any:
        """The value stored under ``key``, built and stored on a miss."""
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
                self._bump("hit")
                return self._entries[key]
            self._bump("miss")
        value = build()
        with self._lock:
            if key in self._entries:  # a concurrent build got there first
                self._entries.move_to_end(key)
                return self._entries[key]
            self._entries[key] = value
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self._bump("eviction")
        return value

    def values(self) -> list[Any]:
        """The stored values, least recently used first."""
        with self._lock:
            return list(self._entries.values())

    def stats(self) -> dict[str, int]:
        """Event counters plus occupancy (``entries``)."""
        with self._lock:
            return {**self._counts, "entries": len(self._entries)}

    def clear(self) -> None:
        """Drop every entry and zero the counters (the registry keeps its)."""
        with self._lock:
            self._entries.clear()
            self._counts = dict.fromkeys(self._counts, 0)
