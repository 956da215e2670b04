"""The unified result/telemetry API: the ``Reportable`` protocol.

Every result object in the codebase (``DiscoveryResult``, ``MatrixRow``,
``RankingStats``, ...) satisfies the :class:`Reportable`
protocol: ``summary()`` returns a flat dict of scalars under canonical
names (durations ``*_seconds``, tallies ``*_count``), ``to_dict()``
returns the full serialisable payload, ``to_json()`` its JSON text.
"""

from __future__ import annotations

import json
from typing import Any, Protocol, runtime_checkable

__all__ = ["Reportable", "ReportableMixin", "json_default"]


@runtime_checkable
class Reportable(Protocol):
    """Structural protocol every result/telemetry object satisfies."""

    def summary(self) -> dict[str, Any]:
        """Flat scalar overview under canonical ``*_seconds``/``*_count`` keys."""
        ...

    def to_dict(self) -> dict[str, Any]:
        """Full JSON-serialisable payload (may nest)."""
        ...

    def to_json(self, *, indent: int | None = None) -> str:
        """``to_dict()`` rendered as JSON text."""
        ...


def json_default(obj: Any) -> Any:
    """``json.dumps`` fallback for numpy scalars/arrays inside payloads."""
    if hasattr(obj, "item") and not hasattr(obj, "__len__"):
        return obj.item()
    if hasattr(obj, "tolist"):
        return obj.tolist()
    raise TypeError(f"{type(obj).__name__} is not JSON serialisable")


class ReportableMixin:
    """Default ``to_dict``/``to_json`` on top of a class's ``summary()``.

    Classes whose serialised payload is richer than the summary (e.g.
    ``MatrixRow``, whose ``to_dict`` carries every field) override
    ``to_dict`` and keep the derived ``to_json``.
    """

    def summary(self) -> dict[str, Any]:
        raise NotImplementedError(f"{type(self).__name__} must implement summary()")

    def to_dict(self) -> dict[str, Any]:
        return dict(self.summary())

    def to_json(self, *, indent: int | None = None) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=indent, default=json_default)
