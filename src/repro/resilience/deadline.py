"""A wall-clock deadline threaded through the execution stack.

A :class:`Deadline` is one immutable budget created at a boundary (a
served request, a grid point, a ``discover_facts`` call) and *checked*
at every cooperative point below it.

Everything runs in-process, so nothing can preempt running work:
enforcement is cooperative.  :func:`repro.discovery.discover_facts`
checks between relations, and ``repro serve`` turns an expiry into a
typed 504.

The clock is injectable so deadline logic is testable without waiting.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable

from .errors import DeadlineExceededError

__all__ = ["Deadline"]


@dataclass(frozen=True)
class Deadline:
    """A fixed instant on ``clock`` by which work must finish."""

    at: float
    seconds: float
    clock: Callable[[], float] = field(
        default=time.monotonic, repr=False, compare=False
    )

    @classmethod
    def after(
        cls, seconds: float, clock: Callable[[], float] = time.monotonic
    ) -> "Deadline":
        """A deadline ``seconds`` from now on ``clock``."""
        if seconds <= 0:
            raise ValueError(f"deadline must be positive, got {seconds!r}")
        return cls(at=clock() + seconds, seconds=seconds, clock=clock)

    def remaining(self) -> float:
        """Seconds left; negative once expired."""
        return self.at - self.clock()

    def expired(self) -> bool:
        return self.remaining() <= 0.0

    def check(self, label: str = "deadline") -> None:
        """Raise :class:`DeadlineExceededError` if the budget is spent."""
        remaining = self.remaining()
        if remaining <= 0.0:
            raise DeadlineExceededError(
                f"{label}: {self.seconds:.1f}s deadline exceeded "
                f"({-remaining:.1f}s overdue)",
                budget=self.seconds,
                overdue=-remaining,
            )
