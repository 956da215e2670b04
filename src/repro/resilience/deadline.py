"""A unified wall-clock deadline threaded through the execution stack.

Before this type existed every layer spelled time budgets differently:
:class:`~repro.resilience.retry.RetryPolicy` had two float fields, and
campaign loops had no way to say "give each cell at most N seconds".  A :class:`Deadline` is one immutable budget created at a
boundary (CLI flag, campaign start, cell dispatch) and *checked* at
every cooperative point below it.

Everything runs in-process, so nothing can preempt a running attempt:
enforcement is cooperative.  :func:`~repro.resilience.retry.with_retries`
refuses to start an attempt (or a backoff sleep) past the deadline,
and :func:`repro.discovery.discover_facts` checks between relations.

The clock is injectable (same contract as ``with_retries``) so deadline
logic is testable without waiting.
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
