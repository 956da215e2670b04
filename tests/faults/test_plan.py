"""FaultPlan matching: budgets, unlimited faults, kind/site/token gating."""

from __future__ import annotations

from repro.faults import FaultPlan


class TestMatching:
    def test_exhausted_fault_stops_matching(self):
        plan = FaultPlan().fail("site", times=1)
        assert plan._consume("fail", "site", "x") is not None
        assert plan._consume("fail", "site", "x") is None
        assert plan.fired() == 1

    def test_negative_times_never_exhausts(self):
        plan = FaultPlan().fail("site", times=-1)
        for _ in range(10):
            assert plan._consume("fail", "site", "") is not None
        assert plan.fired() == 10

    def test_kind_site_and_token_all_gate(self):
        plan = FaultPlan().fail("matrix_cell", match="*distmult*")
        assert plan._consume("torn", "matrix_cell", "a/distmult/b") is None
        assert plan._consume("fail", "train_epoch", "a/distmult/b") is None
        assert plan._consume("fail", "matrix_cell", "a/transe/b") is None
        assert plan._consume("fail", "matrix_cell", "a/distmult/b") is not None
