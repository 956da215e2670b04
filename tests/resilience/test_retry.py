"""Retry-executor tests: budgets, backoff, deadlines — no real waiting."""

from __future__ import annotations

import numpy as np
import pytest

from repro import faults
from repro.resilience import (
    FaultPlan,
    RetryBudgetExceededError,
    RetryPolicy,
    with_retries,
)


def flaky(fail_times: int, error=RuntimeError):
    """A callable that fails its first ``fail_times`` attempts."""
    calls: list[int] = []

    def fn(attempt: int):
        calls.append(attempt)
        if len(calls) <= fail_times:
            raise error(f"attempt {attempt} failed")
        return ("ok", attempt)

    fn.calls = calls
    return fn


class TestPolicyValidation:
    def test_rejects_bad_budgets(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(base_delay=-1.0)
        with pytest.raises(ValueError):
            RetryPolicy(multiplier=0.5)
        with pytest.raises(ValueError):
            RetryPolicy(jitter=1.5)

    def test_delay_schedule(self):
        policy = RetryPolicy(base_delay=1.0, multiplier=2.0, max_delay=4.0)
        assert [policy.delay_for(a) for a in range(4)] == [1.0, 2.0, 4.0, 4.0]

    def test_jitter_is_deterministic_given_the_rng(self):
        policy = RetryPolicy(base_delay=1.0, jitter=0.5)
        a = policy.delay_for(0, np.random.default_rng(42))
        b = policy.delay_for(0, np.random.default_rng(42))
        assert a == b
        assert 0.5 <= a <= 1.5


class TestWithRetries:
    def test_first_attempt_success(self):
        fn = flaky(0)
        assert with_retries(fn, RetryPolicy(max_attempts=3)) == ("ok", 0)
        assert fn.calls == [0]

    def test_attempt_indices_are_passed_through(self):
        fn = flaky(2)
        result = with_retries(fn, RetryPolicy(max_attempts=3))
        assert result == ("ok", 2)
        assert fn.calls == [0, 1, 2]

    def test_budget_exhaustion_raises_typed_error_with_cause(self):
        fn = flaky(99)
        with pytest.raises(RetryBudgetExceededError) as info:
            with_retries(fn, RetryPolicy(max_attempts=3), label="job")
        assert info.value.attempts == 3
        assert isinstance(info.value.__cause__, RuntimeError)
        assert "attempt 2 failed" in str(info.value.__cause__)

    def test_non_retryable_errors_propagate_immediately(self):
        fn = flaky(99, error=TypeError)
        with pytest.raises(TypeError):
            with_retries(
                fn, RetryPolicy(max_attempts=5), retry_on=(ValueError,)
            )
        assert fn.calls == [0]

    def test_backoff_sleeps_follow_the_schedule(self):
        sleeps: list[float] = []
        fn = flaky(3)
        policy = RetryPolicy(max_attempts=4, base_delay=1.0, multiplier=2.0)
        with_retries(fn, policy, sleep=sleeps.append)
        assert sleeps == [1.0, 2.0, 4.0]

    def test_no_sleep_after_the_final_attempt(self):
        sleeps: list[float] = []
        with pytest.raises(RetryBudgetExceededError):
            with_retries(
                flaky(99),
                RetryPolicy(max_attempts=2, base_delay=1.0),
                sleep=sleeps.append,
            )
        assert sleeps == [1.0]


class TestDeadlines:
    def test_attempt_deadline_stops_retrying_overdue_failures(self):
        # The fault plan stalls attempt 0 by 900 virtual seconds; a failed
        # attempt that overshot its deadline must not be retried.
        fn = flaky(99)
        policy = RetryPolicy(max_attempts=5, attempt_deadline=60.0)
        with faults.inject(FaultPlan().stall("slow_job", 900.0)):
            with pytest.raises(RetryBudgetExceededError, match="overshot") as info:
                with_retries(fn, policy, label="slow_job")
        assert fn.calls == [0]
        assert info.value.attempts == 1

    def test_total_deadline_accounts_for_backoff(self):
        ticks = iter(range(100))
        policy = RetryPolicy(
            max_attempts=10, base_delay=50.0, total_deadline=40.0
        )
        with pytest.raises(RetryBudgetExceededError, match="total deadline"):
            with_retries(
                flaky(99),
                policy,
                sleep=lambda _: None,
                clock=lambda: float(next(ticks)),
            )

    def test_deadlines_do_not_fire_on_fast_attempts(self):
        fn = flaky(2)
        policy = RetryPolicy(
            max_attempts=4, attempt_deadline=60.0, total_deadline=600.0
        )
        assert with_retries(fn, policy) == ("ok", 2)
