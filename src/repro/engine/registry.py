"""Name registries: every user-typed name resolves through one class.

Experiments, topologies, routing strategies, repair strategies and
benchmarks are each a :class:`Registry` of one ``kind``.  An unknown
name raises the same ``KeyError`` everywhere::

    unknown topology 'squre'; did you mean 'square'? (known: heavy-hex, square, ring)

The analysis layer registers one :class:`ExperimentSpec` per figure/table
driver; the ``python -m repro`` CLI and the service resolve experiments
by name (or alias) and hand them an
:class:`~repro.engine.runner.ExecutionEngine`.
"""

from __future__ import annotations

import difflib
import inspect
from dataclasses import dataclass, field
from typing import Any, Callable, Generic, Iterable, TypeVar

__all__ = ["ExperimentSpec", "Registry", "unknown_name"]

T = TypeVar("T")


def unknown_name(
    kind: str, name: Any, known: Iterable[str], aliases: Iterable[str] = ()
) -> KeyError:
    """The one unknown-name error: kind, the name, a close match, the known set."""
    known = list(known)
    matches = difflib.get_close_matches(str(name), [*known, *aliases], n=1, cutoff=0.5)
    hint = f"; did you mean {matches[0]!r}?" if matches else ""
    return KeyError(f"unknown {kind} {name!r}{hint} (known: {', '.join(known)})")


class Registry(Generic[T]):
    """Mutable name -> item mapping with alias support, in registration order."""

    def __init__(self, kind: str) -> None:
        self.kind = kind
        self._items: dict[str, T] = {}
        self._aliases: dict[str, str] = {}

    def register(self, name: str, item: T, aliases: tuple[str, ...] = ()) -> T:
        """Register ``item`` under ``name`` (and ``aliases``); duplicates raise."""
        for key in (name, *aliases):
            if key in self:
                raise ValueError(f"{self.kind} {key!r} already registered")
        self._items[name] = item
        self._aliases.update(dict.fromkeys(aliases, name))
        return item

    def get(self, name: str) -> T:
        """Resolve a name or alias; raises ``KeyError`` with a suggestion."""
        item = self._items.get(self._aliases.get(name, name))
        if item is None:
            raise unknown_name(self.kind, name, self._items, self._aliases)
        return item

    def names(self) -> list[str]:
        """Canonical names in registration order."""
        return list(self._items)

    def specs(self) -> list[T]:
        """Every registered item in registration order."""
        return list(self._items.values())

    def __contains__(self, name: str) -> bool:
        return name in self._items or name in self._aliases

    def __len__(self) -> int:
        return len(self._items)


@dataclass(frozen=True)
class ExperimentSpec:
    """A named, engine-aware experiment.

    Attributes
    ----------
    name:
        Canonical name (``fig4``, ``table1``, ...).
    description:
        One-line summary shown by ``python -m repro list``.
    runner:
        ``runner(engine, **options) -> (result, text)``.  Its keyword
        parameters are the options it reads, with their defaults.
    aliases:
        Alternative names.
    """

    name: str
    description: str
    runner: Callable[..., Any]
    aliases: tuple[str, ...] = field(default=())

    @property
    def options(self) -> dict[str, Any]:
        """The options the runner reads, each with its default."""
        parameters = list(inspect.signature(self.runner).parameters.values())[1:]
        return {p.name: p.default for p in parameters}
