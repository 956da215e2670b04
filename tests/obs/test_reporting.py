"""The unified result API: the Reportable protocol."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.obs import Reportable, ReportableMixin, json_default


class _Result(ReportableMixin):
    def summary(self):
        return {"facts_count": np.int64(3), "mrr": np.float64(0.25)}


class TestReportableMixin:
    def test_to_dict_copies_summary(self):
        result = _Result()
        payload = result.to_dict()
        assert payload == {"facts_count": 3, "mrr": 0.25}
        payload["facts_count"] = 99
        assert result.to_dict()["facts_count"] == 3

    def test_to_json_handles_numpy_scalars(self):
        assert json.loads(_Result().to_json()) == {"facts_count": 3, "mrr": 0.25}

    def test_summary_must_be_implemented(self):
        class Bare(ReportableMixin):
            pass

        with pytest.raises(NotImplementedError):
            Bare().summary()

    def test_satisfies_protocol(self):
        assert isinstance(_Result(), Reportable)


class TestJsonDefault:
    def test_numpy_scalar_and_array(self):
        assert json_default(np.float32(1.5)) == 1.5
        assert json_default(np.arange(3)) == [0, 1, 2]

    def test_unknown_type_raises(self):
        with pytest.raises(TypeError, match="not JSON serialisable"):
            json_default(object())


class TestResultClassesSpeakReportable:
    def test_ranking_stats_round_trip(self):
        from repro.kge.ranking import RankingStats

        stats = RankingStats()
        stats.candidates_ranked = 10
        stats.rows_scored = 4
        assert isinstance(stats, Reportable)
        clone = RankingStats.from_dict(stats.to_dict())
        assert clone.to_dict() == stats.to_dict()
        # summary() speaks canonical keys; from_dict takes field names only.
        assert stats.summary()["candidates_ranked_count"] == 10
        assert stats.summary()["score_seconds"] == 0.0
        with pytest.raises(ValueError, match="unknown RankingStats keys"):
            RankingStats.from_dict(stats.summary())

    def test_all_retrofitted_results_satisfy_protocol(self):
        from repro.discovery.anytime import AnytimeResult
        from repro.discovery.discover import DiscoveryResult
        from repro.discovery.protocol import ProtocolResult
        from repro.experiments.gridsearch import GridPoint
        from repro.experiments.runner import MatrixRow
        from repro.experiments.workflow import WorkflowReport

        for cls in (
            AnytimeResult,
            DiscoveryResult,
            ProtocolResult,
            GridPoint,
            MatrixRow,
            WorkflowReport,
        ):
            assert issubclass(cls, ReportableMixin), cls

    def test_matrix_row_summary_is_canonical_only(self):
        from repro.experiments.runner import MatrixRow

        row = MatrixRow(
            dataset="d",
            model="m",
            strategy="s",
            num_facts=7,
            mrr=0.5,
            runtime_seconds=1.0,
            weight_seconds=0.25,
            efficiency_facts_per_hour=100.0,
        )
        summary = row.summary()
        assert summary["facts_count"] == 7
        # Retired alias: plain dict now, no deprecated lookup path.
        assert "num_facts" not in summary
        with pytest.raises(KeyError):
            summary["num_facts"]
