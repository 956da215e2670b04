"""Typed failure modes of the resilience layer.

Every fault the training, checkpoint and query paths detect maps to one
of these exceptions so callers can write precise ``except`` clauses
instead of blanket handlers.
"""

from __future__ import annotations

__all__ = [
    "ResilienceError",
    "CheckpointCorruptError",
    "TrainingDivergedError",
    "DeadlineExceededError",
]


class ResilienceError(Exception):
    """Base class for faults raised by the resilience layer."""


class CheckpointCorruptError(ResilienceError, ValueError):
    """A checkpoint or cache archive failed its integrity check.

    Subclasses :class:`ValueError` so legacy ``except (ValueError, ...)``
    recovery paths written before the typed error existed keep working.
    """


class TrainingDivergedError(ResilienceError, RuntimeError):
    """A training epoch ended with a non-finite (NaN/Inf) mean loss."""


class DeadlineExceededError(ResilienceError, TimeoutError):
    """A :class:`~repro.resilience.deadline.Deadline` expired.

    Subclasses :class:`TimeoutError` so generic timeout handlers apply.
    ``budget`` is the original allowance in seconds, ``overdue`` how far
    past it the check ran.
    """

    def __init__(self, message: str, budget: float = 0.0, overdue: float = 0.0) -> None:
        super().__init__(message)
        self.budget = budget
        self.overdue = overdue
