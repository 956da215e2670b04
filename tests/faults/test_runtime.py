"""Fault activation hooks: torn journal appends and virtual stalls."""

from __future__ import annotations

import time

import pytest

from repro import faults
from repro.faults import FaultPlan


@pytest.fixture(autouse=True)
def _pristine_runtime():
    faults.clear()
    yield
    faults.clear()


class TestTornAppend:
    def test_consumes_matching_fault_once(self):
        with faults.inject(FaultPlan().torn(match="cell_succeeded")) as plan:
            assert faults.torn_append("cell_started") is False
            assert faults.torn_append("cell_succeeded") is True
            assert faults.torn_append("cell_succeeded") is False
            assert plan.fired() == 1

    def test_false_without_plan(self):
        assert faults.torn_append("anything") is False


class TestStall:
    def test_virtual_stall_does_not_sleep(self):
        with faults.inject(FaultPlan().stall("site", 900.0)):
            started = time.monotonic()
            assert faults.stall_seconds("site") == 900.0
            faults.trigger("site")  # stalls never sleep at trigger
            assert time.monotonic() - started < 5.0
