"""Typed failure modes of the resilience layer.

Every recoverable fault in the training/campaign stack maps to one of
these exceptions so callers can write precise ``except`` clauses instead
of blanket handlers (which :mod:`repro.lint` rule RPR007 rejects).
"""

from __future__ import annotations

__all__ = [
    "ResilienceError",
    "CheckpointCorruptError",
    "TrainingDivergedError",
    "RetryBudgetExceededError",
    "DeadlineExceededError",
    "FaultInjectedError",
]


class ResilienceError(Exception):
    """Base class for faults raised by the resilience layer."""


class CheckpointCorruptError(ResilienceError, ValueError):
    """A checkpoint or cache archive failed its integrity check.

    Subclasses :class:`ValueError` so legacy ``except (ValueError, ...)``
    recovery paths written before the typed error existed keep working.
    """


class TrainingDivergedError(ResilienceError, RuntimeError):
    """Training hit a guard condition (NaN/Inf loss, loss explosion,
    non-finite parameters or gradients) that the configured policy could
    not recover from.

    Carries the :class:`~repro.resilience.guards.GuardReport` so callers
    can inspect what tripped and when.
    """

    def __init__(self, message: str, report=None) -> None:
        super().__init__(message)
        self.report = report


class RetryBudgetExceededError(ResilienceError, RuntimeError):
    """A retried operation exhausted its attempt or deadline budget.

    ``__cause__`` holds the last underlying failure.
    """

    def __init__(self, message: str, attempts: int = 0, elapsed: float = 0.0) -> None:
        super().__init__(message)
        self.attempts = attempts
        self.elapsed = elapsed


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


class FaultInjectedError(ResilienceError, RuntimeError):
    """Raised by the fault-injection harness (:mod:`repro.faults`)."""
