"""Tests for budget-constrained anytime discovery."""

from __future__ import annotations

import numpy as np
import pytest

from repro.discovery import anytime_discover
from repro.kg import GraphStatistics


@pytest.fixture(scope="module")
def shared_stats(tiny_graph):
    return GraphStatistics(tiny_graph.train)


class TestValidation:
    def test_bad_scheduler(self, trained_distmult, tiny_graph):
        with pytest.raises(ValueError):
            anytime_discover(
                trained_distmult, tiny_graph, budget_seconds=1.0,
                scheduler="priority",
            )

    def test_bad_budget(self, trained_distmult, tiny_graph):
        with pytest.raises(ValueError):
            anytime_discover(trained_distmult, tiny_graph, budget_seconds=0.0)

    def test_bad_batch(self, trained_distmult, tiny_graph):
        with pytest.raises(ValueError):
            anytime_discover(
                trained_distmult, tiny_graph, budget_seconds=1.0,
                batch_candidates=0,
            )


class TestInvariants:
    @pytest.fixture(scope="class")
    def result(self, trained_distmult, tiny_graph):
        return anytime_discover(
            trained_distmult, tiny_graph, budget_seconds=1.5,
            scheduler="ucb", top_n=15, batch_candidates=50, seed=0,
        )

    def test_budget_roughly_respected(self, result):
        # One pull may overshoot; anything beyond 3× the budget is a bug.
        assert result.elapsed_seconds < 3 * result.budget_seconds

    def test_facts_valid(self, result, tiny_graph):
        if result.num_facts:
            assert not tiny_graph.train.contains(result.facts).any()
            assert (result.ranks <= 15).all()
            assert (result.ranks >= 1).all()

    def test_no_duplicate_facts(self, result, tiny_graph):
        from repro.kg import encode_keys

        if result.num_facts:
            keys = encode_keys(
                result.facts, tiny_graph.num_entities, tiny_graph.num_relations
            )
            assert len(np.unique(keys)) == len(keys)

    def test_pull_accounting(self, result, tiny_graph):
        assert set(result.pulls) == set(
            int(r) for r in tiny_graph.train.unique_relations()
        )
        assert sum(result.pulls.values()) > 0

    def test_rewards_are_rates(self, result):
        for reward in result.rewards.values():
            assert 0.0 <= reward <= 1.0

    def test_metrics(self, result):
        assert 0.0 <= result.mrr() <= 1.0
        assert result.facts_per_hour() >= 0.0


class _RelationBiasedModel:
    """Scripted model making relation 0 a high-yield arm.

    For relation 0 the object scores follow object popularity — the same
    signal the sampling strategies use to pick candidates — so most
    sampled candidates rank near the top.  Every other relation scores
    pure noise, so acceptance is ≈ top_n / N.  Only the subset of the
    KGEModel interface that object-side ranking touches is implemented.
    """

    def __init__(self, num_entities: int, popularity: np.ndarray) -> None:
        self.num_entities = num_entities
        self.popularity = popularity.astype(float)
        self._rng = np.random.default_rng(0)

    def scores_sp(self, s, r):
        r = np.asarray(r)
        scores = self._rng.normal(0.0, 1.0, size=(len(r), self.num_entities))
        scores[r == 0] = self.popularity + self._rng.normal(
            0.0, 1e-6, size=(int((r == 0).sum()), self.num_entities)
        )
        return scores


# Function-scoped on purpose: the model consumes its internal RNG on
# every scores_sp call, and the wall-clock-budgeted tests draw a
# timing-dependent amount from it.  Sharing one instance across tests
# would leak that state into the deterministic scheduler comparison.
@pytest.fixture
def biased_model(small_graph):
    stats = GraphStatistics(small_graph.train, backend="sparse")
    return _RelationBiasedModel(small_graph.num_entities, stats.object_frequency)


class TestSchedulers:
    def test_round_robin_spreads_pulls(self, small_graph, biased_model):
        """On a graph large enough that no arm exhausts, round-robin pull
        counts differ by at most one."""
        model = biased_model
        result = anytime_discover(
            model, small_graph, budget_seconds=0.3,
            scheduler="round_robin", top_n=15, batch_candidates=100, seed=0,
        )
        assert not any(result.exhausted.values())
        pulls = list(result.pulls.values())
        assert max(pulls) - min(pulls) <= 1

    def test_ucb_finds_facts(self, trained_distmult, tiny_graph):
        result = anytime_discover(
            trained_distmult, tiny_graph, budget_seconds=1.0,
            scheduler="ucb", top_n=15, batch_candidates=50, seed=0,
        )
        assert result.num_facts > 0

    def test_ucb_prefers_high_yield_relations(self, small_graph, biased_model):
        """With one relation yielding mostly-accepted candidates and the
        rest near-chance, UCB must concentrate its pulls on it."""
        model = biased_model
        result = anytime_discover(
            model, small_graph, budget_seconds=0.4,
            scheduler="ucb", top_n=5, batch_candidates=64, seed=0,
        )
        busiest = max(result.pulls, key=result.pulls.get)
        assert busiest == 0
        assert result.rewards[0] == max(result.rewards.values())

    def test_ucb_beats_round_robin_on_skewed_yields(self, small_graph, biased_model):
        """The point of the bandit: same budget (pull count), more facts.

        The budget is expressed in pulls (``max_pulls``) rather than
        wall-clock so both schedulers do exactly the same amount of work
        and the comparison is deterministic.
        """
        model = biased_model
        kwargs = dict(
            budget_seconds=30.0, max_pulls=30, top_n=5,
            batch_candidates=64, seed=0,
        )
        ucb = anytime_discover(model, small_graph, scheduler="ucb", **kwargs)
        rr = anytime_discover(model, small_graph, scheduler="round_robin", **kwargs)
        ucb_rate = ucb.num_facts / max(sum(ucb.pulls.values()), 1)
        rr_rate = rr.num_facts / max(sum(rr.pulls.values()), 1)
        assert ucb_rate > rr_rate

    def test_anytime_monotone_in_budget(self, trained_distmult, tiny_graph):
        """A larger pull budget never finds fewer facts.

        Budgets are pull counts under a generous wall budget, so the
        comparison does not depend on machine speed.
        """
        kwargs = dict(
            budget_seconds=30.0, scheduler="ucb", top_n=15,
            batch_candidates=50, seed=0,
        )
        small = anytime_discover(trained_distmult, tiny_graph, max_pulls=3, **kwargs)
        large = anytime_discover(trained_distmult, tiny_graph, max_pulls=20, **kwargs)
        assert sum(small.pulls.values()) == 3
        assert sum(large.pulls.values()) > 3
        assert large.num_facts >= small.num_facts

    def test_exhausted_arms_terminate_early(self, trained_distmult, tiny_graph):
        """With top_n = N every candidate passes; once every relation's
        pool is exhausted the loop stops before the budget."""
        result = anytime_discover(
            trained_distmult, tiny_graph, budget_seconds=30.0,
            scheduler="round_robin", top_n=tiny_graph.num_entities,
            batch_candidates=2000, seed=0, max_pulls=200,
        )
        assert result.elapsed_seconds < 30.0


def test_summary_uses_canonical_keys():
    from repro.discovery.anytime import AnytimeResult

    result = AnytimeResult(
        facts=np.asarray([[0, 0, 1], [2, 0, 3]]),
        ranks=np.asarray([1.0, 4.0]),
        scheduler="ucb",
        budget_seconds=2.0,
        elapsed_seconds=0.0,
        pulls={0: 3, 1: 2},
        exhausted={0: True, 1: False},
        ranking_stats={"rows_scored": 7},
    )
    summary = result.summary()
    assert summary["facts_count"] == 2
    assert summary["mrr"] == pytest.approx(0.625)
    assert summary["pulls_count"] == 5
    assert summary["exhausted_count"] == 1
    # No elapsed time yet: efficiency is 0, not a division error.
    assert summary["efficiency_facts_per_hour"] == 0.0
    assert summary["rows_scored_count"] == 7
    assert "rows_scored" not in summary


def test_empty_result_has_zero_mrr():
    from repro.discovery.anytime import AnytimeResult

    result = AnytimeResult(
        facts=np.zeros((0, 3), dtype=np.int64),
        ranks=np.zeros(0),
        scheduler="round_robin",
        budget_seconds=1.0,
        elapsed_seconds=0.5,
    )
    assert result.mrr() == 0.0
    assert result.summary()["facts_count"] == 0
