"""The in-process Session: filter settings, deadlines and load failures."""

from __future__ import annotations

import dataclasses
import json

import numpy as np
import pytest

from repro.api import ClassifyRequest, DiscoverRequest, RankRequest, Session
from repro.api.types import BadRequestError, DeadlineError
from repro.kg import TripleSet
from repro.kge.ranking import RankingEngine
from repro.obs import MetricsRegistry, use_registry
from repro.resilience import CheckpointCorruptError, Deadline
from repro.serve import ServeApp


class _StepClock:
    """A clock that moves ``step`` seconds every time it is read."""

    def __init__(self, step: float) -> None:
        self.now = 0.0
        self.step = step

    def __call__(self) -> float:
        self.now += self.step
        return self.now


class TestRankFilters:
    @pytest.mark.parametrize("setting", ["none", "train", "all"])
    def test_filter_setting_matches_the_offline_engine(
        self, session, model_id, test_triples, trained_distmult, tiny_graph, setting
    ):
        filter_triples = {
            "none": None, "train": tiny_graph.train, "all": tiny_graph.all_triples(),
        }[setting]
        served = session.rank(
            RankRequest(model=model_id, triples=test_triples, filter=setting)
        )
        offline = RankingEngine().compute_ranks(
            trained_distmult,
            np.asarray(test_triples, dtype=np.int64),
            filter_triples=filter_triples,
            side="object",
        )
        np.testing.assert_array_equal(np.asarray(served.ranks), offline)
        assert served.filter == setting


    def test_all_filter_union_is_built_once_per_model(
        self, make_registry, checkpoint_path, test_triples, tiny_graph, monkeypatch
    ):
        cold = dataclasses.replace(tiny_graph)  # a copy with no union yet
        session = Session(make_registry(graph_loader=lambda name: cold))
        model_id = session.add_model("tiny", checkpoint_path).model_id
        reference = tiny_graph.all_triples()
        built = []
        init = TripleSet.__init__

        def counting_init(triples, *args, **kwargs):
            init(triples, *args, **kwargs)
            if triples == reference:
                built.append(triples)

        monkeypatch.setattr(TripleSet, "__init__", counting_init)
        request = RankRequest(model=model_id, triples=test_triples, filter="all")
        first = session.rank(request)
        second = session.rank(request)
        assert len(built) == 1
        assert first.ranks == second.ranks


class TestRequestErrors:
    def test_unknown_strategy_is_a_bad_request(self, session, model_id):
        with pytest.raises(BadRequestError, match="unknown strategy 'psychic'"):
            session.discover(DiscoverRequest(model=model_id, strategy="psychic"))


class TestSessionDeadlines:
    def test_session_wide_deadline_covers_every_request(
        self, make_registry, checkpoint_path, test_triples
    ):
        strict = Session(make_registry(), deadline_seconds=1e-9)
        model_id = strict.add_model("tiny", checkpoint_path).model_id
        with pytest.raises(DeadlineError, match="rank request admitted"):
            strict.rank(RankRequest(model=model_id, triples=test_triples))

    def test_rank_deadline_can_expire_while_scoring(
        self, session, model_id, test_triples
    ):
        # Each clock read moves 1 s: the deadline is read at t=1 and falls
        # at t=2.5, the admission check reads t=2 and passes, and the
        # check after scoring reads t=3 and fails.
        deadline = Deadline.after(1.5, clock=_StepClock(1.0))
        with pytest.raises(DeadlineError, match="rank rows scored"):
            session.rank(RankRequest(model=model_id, triples=test_triples), deadline)

    def test_classify_checks_its_deadline_at_admission(
        self, session, model_id, test_triples
    ):
        deadline = Deadline.after(0.5, clock=_StepClock(1.0))
        with pytest.raises(DeadlineError, match="classify request admitted"):
            session.classify(
                ClassifyRequest(model=model_id, triples=test_triples), deadline
            )

    def test_classify_deadline_can_expire_while_scoring(
        self, session, model_id, test_triples
    ):
        deadline = Deadline.after(1.5, clock=_StepClock(1.0))
        with pytest.raises(DeadlineError, match="classify rows scored"):
            session.classify(
                ClassifyRequest(model=model_id, triples=test_triples), deadline
            )


class TestLoadFailures:
    def test_corrupt_checkpoint_is_rejected_at_registration(
        self, make_registry, tmp_path, checkpoint_path
    ):
        damaged = tmp_path / "damaged.npz"
        damaged.write_bytes(checkpoint_path.read_bytes()[:200])
        with pytest.raises(CheckpointCorruptError):
            make_registry().register("tiny", damaged)

    def test_checkpoint_damaged_after_registration_is_a_500_and_recovers(
        self, make_registry, tmp_path, checkpoint_path, test_triples
    ):
        path = tmp_path / "distmult.npz"
        original = checkpoint_path.read_bytes()
        path.write_bytes(original)
        session = Session(make_registry())
        model_id = session.add_model("tiny", path).model_id
        data = bytearray(original)
        middle = len(data) // 2
        for offset in range(middle, middle + 16):
            data[offset] ^= 0xFF
        path.write_bytes(bytes(data))

        body = RankRequest(model=model_id, triples=test_triples).to_bytes()
        app = ServeApp(session)
        metrics = MetricsRegistry()
        with use_registry(metrics):
            status, _, payload = app.handle("POST", "/v1/rank", body)
        assert status == 500
        assert "CheckpointCorruptError" in json.loads(payload)["error"]["message"]
        assert metrics.snapshot()["counters"]["serve.errors_count"] == 1
        assert session.registry.loaded_ids() == ()

        # The failed load released its slot: a repaired file serves again.
        path.write_bytes(original)
        status, _, _ = app.handle("POST", "/v1/rank", body)
        assert status == 200

    def test_registry_needs_room_for_one_model(self, make_registry):
        with pytest.raises(ValueError, match="capacity"):
            make_registry(capacity=0)
