"""Deadline unit tests — all on an injected clock, no real waiting."""

from __future__ import annotations

import pytest

from repro.resilience import (
    CheckpointCorruptError,
    Deadline,
    DeadlineExceededError,
    ResilienceError,
    TrainingDivergedError,
)


class FakeClock:
    def __init__(self, now: float = 0.0) -> None:
        self.now = now

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


class TestDeadline:
    def test_after_rejects_non_positive_budgets(self):
        with pytest.raises(ValueError, match="positive"):
            Deadline.after(0.0)
        with pytest.raises(ValueError, match="positive"):
            Deadline.after(-5.0)

    def test_remaining_counts_down_and_goes_negative(self):
        clock = FakeClock()
        deadline = Deadline.after(10.0, clock=clock)
        assert deadline.remaining() == 10.0
        assert not deadline.expired()
        clock.advance(7.0)
        assert deadline.remaining() == 3.0
        clock.advance(5.0)
        assert deadline.remaining() == -2.0
        assert deadline.expired()

    def test_check_passes_then_raises_with_context(self):
        clock = FakeClock()
        deadline = Deadline.after(10.0, clock=clock)
        deadline.check("cell")  # in budget: silent
        clock.advance(12.5)
        with pytest.raises(DeadlineExceededError, match="cell") as excinfo:
            deadline.check("cell")
        assert excinfo.value.budget == 10.0
        assert excinfo.value.overdue == pytest.approx(2.5)

    def test_deadline_error_is_a_timeout(self):
        # Callers using stdlib idioms (except TimeoutError) must catch it.
        assert issubclass(DeadlineExceededError, TimeoutError)


    def test_budget_is_spent_exactly_at_the_deadline(self):
        clock = FakeClock()
        deadline = Deadline.after(5.0, clock=clock)
        clock.advance(5.0)
        assert deadline.remaining() == 0.0
        assert deadline.expired()
        with pytest.raises(DeadlineExceededError, match="0.0s overdue"):
            deadline.check()

    def test_deadlines_compare_by_instant_not_clock(self):
        a = Deadline(at=10.0, seconds=5.0, clock=FakeClock())
        b = Deadline(at=10.0, seconds=5.0, clock=FakeClock(3.0))
        assert a == b
        assert "clock" not in repr(a)


class TestErrorTaxonomy:
    def test_every_failure_derives_from_resilience_error(self):
        # One base class lets callers catch the whole layer at once; the
        # stdlib bases (ValueError, RuntimeError, TimeoutError) keep
        # generic handlers working.
        for error in (CheckpointCorruptError, TrainingDivergedError, DeadlineExceededError):
            assert issubclass(error, ResilienceError)
        assert issubclass(TrainingDivergedError, RuntimeError)

    def test_deadline_error_defaults_carry_no_budget(self):
        error = DeadlineExceededError("late")
        assert (str(error), error.budget, error.overdue) == ("late", 0.0, 0.0)
