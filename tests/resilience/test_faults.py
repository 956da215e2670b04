"""Fault-injection harness tests: the test scaffolding itself must work."""

from __future__ import annotations

import numpy as np
import pytest

from repro import faults
from repro.resilience import FaultInjectedError, FaultPlan, atomic_write_bytes


@pytest.fixture(autouse=True)
def _no_leftover_plan():
    yield
    faults.clear()


class TestTrigger:
    def test_noop_without_plan(self):
        faults.trigger("train_epoch", 3)  # must not raise

    def test_fires_once_then_exhausts(self):
        with faults.inject(FaultPlan().fail("train_epoch", match="3")) as plan:
            faults.trigger("train_epoch", 0)
            with pytest.raises(FaultInjectedError):
                faults.trigger("train_epoch", 3)
            faults.trigger("train_epoch", 3)  # budget of 1 spent
            assert plan.fired() == 1

    def test_site_and_token_patterns(self):
        plan = FaultPlan().fail("matrix_cell", match="*distmult*")
        with faults.inject(plan):
            faults.trigger("matrix_cell", "wn18rr-like/transe/uniform_random")
            with pytest.raises(FaultInjectedError):
                faults.trigger("matrix_cell", "wn18rr-like/distmult/uniform_random")

    def test_unlimited_budget(self):
        with faults.inject(FaultPlan().fail("site", times=-1)) as plan:
            for _ in range(5):
                with pytest.raises(FaultInjectedError):
                    faults.trigger("site", "x")
            assert plan.fired() == 5

    def test_custom_exception_type(self):
        with faults.inject(FaultPlan().fail("site", exc=MemoryError)):
            with pytest.raises(MemoryError):
                faults.trigger("site")

    def test_inject_clears_plan_even_on_error(self):
        with pytest.raises(RuntimeError):
            with faults.inject(FaultPlan().fail("site")):
                raise RuntimeError("test body blew up")
        assert faults.active_plan() is None


class TestCorruptFile:
    def test_noop_without_plan(self, tmp_path):
        path = tmp_path / "file.npz"
        atomic_write_bytes(path, b"x" * 100)
        assert path.read_bytes() == b"x" * 100

    def test_flip_damages_published_file(self, tmp_path):
        path = tmp_path / "file.npz"
        with faults.inject(FaultPlan().corrupt(match="*.npz")) as plan:
            atomic_write_bytes(path, b"x" * 100)
            assert plan.fired() == 1
        data = path.read_bytes()
        assert len(data) == 100
        assert data != b"x" * 100

    def test_truncate_chops_the_tail(self, tmp_path):
        path = tmp_path / "file.npz"
        with faults.inject(FaultPlan().corrupt(match="*.npz", mode="truncate")):
            atomic_write_bytes(path, b"x" * 99)
        assert len(path.read_bytes()) == 33

    def test_pattern_spares_other_files(self, tmp_path):
        with faults.inject(FaultPlan().corrupt(match="*distmult*")) as plan:
            atomic_write_bytes(tmp_path / "transe.npz", b"y" * 50)
            assert plan.fired() == 0
        assert (tmp_path / "transe.npz").read_bytes() == b"y" * 50

    def test_invalid_mode_rejected(self):
        with pytest.raises(ValueError, match="flip/truncate"):
            FaultPlan().corrupt(mode="shred")


class TestStall:
    def test_reports_virtual_seconds_once(self):
        with faults.inject(FaultPlan().stall("get_trained_model", 900.0)):
            assert faults.stall_seconds("get_trained_model", "0") == 900.0
            assert faults.stall_seconds("get_trained_model", "1") == 0.0

    def test_zero_without_plan(self):
        assert faults.stall_seconds("anything") == 0.0


class TestPlanBuilder:
    def test_builder_chains(self):
        plan = FaultPlan().fail("a").corrupt().stall("b", 5.0)
        assert len(plan.faults) == 3
        assert plan.fired() == 0
