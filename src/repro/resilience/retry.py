"""A generic retry executor with exponential backoff and deadlines.

``with_retries`` is the one retry loop in the codebase — training runs,
campaign cells, and cache rebuilds all go through it so attempt
accounting, backoff, and deadline enforcement behave identically
everywhere.  Determinism matters here: backoff jitter draws from an
*injected* ``np.random.Generator`` (never the global RNG), and both the
clock and the sleep function are injectable so tests run without real
waiting.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass
from typing import Callable, TypeVar

import numpy as np

from .. import faults
from .deadline import Deadline
from .errors import DeadlineExceededError, RetryBudgetExceededError

__all__ = ["RetryPolicy", "with_retries"]

logger = logging.getLogger(__name__)

T = TypeVar("T")


@dataclass(frozen=True)
class RetryPolicy:
    """How often, how spaced, and how long to keep trying.

    ``base_delay`` grows by ``multiplier`` per failed attempt, capped at
    ``max_delay``; ``jitter`` widens each delay to ``delay · (1 ± jitter)``
    using the generator passed to :func:`with_retries`.
    ``attempt_deadline`` marks a single attempt as overdue (an overdue
    *failure* stops retrying immediately); ``total_deadline`` bounds the
    whole retry loop including backoff sleeps.
    """

    max_attempts: int = 3
    base_delay: float = 0.0
    multiplier: float = 2.0
    max_delay: float = 60.0
    jitter: float = 0.0
    attempt_deadline: float | None = None
    total_deadline: float | None = None

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.base_delay < 0 or self.max_delay < 0:
            raise ValueError("delays must be >= 0")
        if self.multiplier < 1.0:
            raise ValueError("multiplier must be >= 1")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError("jitter must be in [0, 1]")

    def delay_for(self, attempt: int, rng: np.random.Generator | None = None) -> float:
        """Backoff before retrying after failed attempt ``attempt`` (0-based)."""
        delay = min(self.base_delay * self.multiplier**attempt, self.max_delay)
        if self.jitter > 0.0 and rng is not None and delay > 0.0:
            delay *= 1.0 + self.jitter * (2.0 * rng.random() - 1.0)
        return delay


def with_retries(
    fn: Callable[[int], T],
    policy: RetryPolicy | None = None,
    *,
    retry_on: tuple[type[Exception], ...] = (Exception,),
    rng: np.random.Generator | None = None,
    sleep: Callable[[float], None] = time.sleep,
    clock: Callable[[], float] = time.monotonic,
    label: str = "with_retries",
    deadline: Deadline | None = None,
) -> T:
    """Call ``fn(attempt)`` until it succeeds or the budget runs out.

    ``fn`` receives the 0-based attempt index so it can derive
    attempt-specific state (e.g. a spawned RNG stream) instead of
    replaying the identical failing draw.  Exhausting ``max_attempts``
    or a policy deadline raises :class:`RetryBudgetExceededError` with
    the last failure as ``__cause__``; exceptions outside ``retry_on``
    propagate immediately.

    ``deadline`` is the caller's *outer* wall-clock budget (typically a
    per-cell :class:`Deadline` threaded down from the campaign).  Serial
    code cannot preempt a running attempt, so enforcement is
    cooperative: no attempt starts past the deadline, and no backoff
    sleep is entered that the deadline would outlast — both raise
    :class:`DeadlineExceededError`.
    """
    policy = policy or RetryPolicy()
    started = clock()
    last_error: Exception | None = None
    for attempt in range(policy.max_attempts):
        if deadline is not None:
            deadline.check(label)
        attempt_start = clock()
        stalled = faults.stall_seconds(label, str(attempt))
        try:
            result = fn(attempt)
        except retry_on as error:  # noqa: PERF203 — the loop IS the feature
            last_error = error
            elapsed = clock() - attempt_start + stalled
            total = clock() - started + stalled
            overdue = (
                policy.attempt_deadline is not None
                and elapsed > policy.attempt_deadline
            )
            logger.warning(
                "%s attempt %d/%d failed after %.2fs: %s",
                label, attempt + 1, policy.max_attempts, elapsed, error,
            )
            if attempt + 1 >= policy.max_attempts:
                break
            if overdue:
                raise RetryBudgetExceededError(
                    f"{label}: attempt {attempt + 1} overshot its "
                    f"{policy.attempt_deadline:.1f}s deadline ({elapsed:.1f}s)",
                    attempts=attempt + 1,
                    elapsed=total,
                ) from error
            delay = policy.delay_for(attempt, rng)
            if (
                policy.total_deadline is not None
                and total + delay > policy.total_deadline
            ):
                raise RetryBudgetExceededError(
                    f"{label}: total deadline {policy.total_deadline:.1f}s "
                    f"exhausted after {attempt + 1} attempts",
                    attempts=attempt + 1,
                    elapsed=total,
                ) from error
            if deadline is not None and deadline.remaining() <= delay:
                raise DeadlineExceededError(
                    f"{label}: deadline would expire during {delay:.1f}s backoff",
                    budget=deadline.seconds,
                    overdue=max(0.0, -deadline.remaining()),
                ) from error
            if delay > 0.0:
                sleep(delay)
        else:
            return result
    raise RetryBudgetExceededError(
        f"{label}: no success after {policy.max_attempts} attempts",
        attempts=policy.max_attempts,
        elapsed=clock() - started,
    ) from last_error
