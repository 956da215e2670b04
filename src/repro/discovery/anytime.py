"""Anytime fact discovery under a wall-clock budget.

Algorithm 1 spends an equal candidate budget on every relation, but
relations differ wildly in yield: on skewed KGs a few relations produce
most of the accepted facts.  When discovery runs under a *time budget*
(the practical regime — the paper's full runs took hours per
configuration), the scheduling of relations becomes an
exploration/exploitation problem of its own.

:func:`anytime_discover` treats each relation as an arm of a multi-armed
bandit.  One *pull* = one mesh-grid generation round for that relation
plus ranking; the *reward* is the acceptance rate (facts found per
candidate).  Two schedulers are provided:

* ``"round_robin"`` — the fair baseline (Algorithm 1's implicit order);
* ``"ucb"`` — UCB1 (Auer et al. 2002): pull the relation maximising
  ``mean_reward + c·√(2 ln N / n_r)``.

The result is *anytime*: stopping at any point yields the best facts
found so far, and more budget monotonically extends the set.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..kg.graph import KnowledgeGraph
from ..kg.stats import OBJECT, SUBJECT, GraphStatistics
from ..kge.base import KGEModel
from ..kge.ranking import RankingEngine, ranking_stat_key
from ..obs import ReportableMixin, Stopwatch, get_registry, span
from .discover import _DiscoveryRun, _mesh_candidates, _unseen_candidates
from .strategies import SamplingStrategy, create_strategy

__all__ = ["AnytimeResult", "anytime_discover"]

_SCHEDULERS = ("round_robin", "ucb")


@dataclass
class AnytimeResult(ReportableMixin):
    """Facts accumulated within the budget plus per-relation accounting."""

    facts: np.ndarray
    ranks: np.ndarray
    scheduler: str
    budget_seconds: float
    elapsed_seconds: float
    pulls: dict[int, int] = field(default_factory=dict)
    rewards: dict[int, float] = field(default_factory=dict)
    exhausted: dict[int, bool] = field(default_factory=dict)
    ranking_stats: dict[str, float] = field(default_factory=dict)

    @property
    def num_facts(self) -> int:
        return len(self.facts)

    def mrr(self) -> float:
        if self.ranks.size == 0:
            return 0.0
        return float((1.0 / self.ranks).mean())

    def facts_per_hour(self) -> float:
        if self.elapsed_seconds <= 0:
            return 0.0
        return self.num_facts / (self.elapsed_seconds / 3600.0)

    def summary(self) -> dict[str, float]:
        """Flat overview under canonical ``*_seconds``/``*_count`` keys."""
        out = {
            "scheduler": self.scheduler,
            "facts_count": self.num_facts,
            "mrr": self.mrr(),
            "budget_seconds": self.budget_seconds,
            "elapsed_seconds": self.elapsed_seconds,
            "pulls_count": int(sum(self.pulls.values())),
            "exhausted_count": int(sum(self.exhausted.values())),
            "efficiency_facts_per_hour": self.facts_per_hour(),
        }
        for name, value in self.ranking_stats.items():
            out[ranking_stat_key(name)] = value
        return out


class _RelationArm:
    """Bandit bookkeeping for one relation."""

    def __init__(self, relation: int) -> None:
        self.relation = relation
        self.pulls = 0
        self.total_reward = 0.0
        self.seen_keys = np.empty(0, dtype=np.int64)
        self.exhausted = False

    @property
    def mean_reward(self) -> float:
        return self.total_reward / self.pulls if self.pulls else 0.0

    def ucb_score(self, total_pulls: int, exploration: float) -> float:
        if self.pulls == 0:
            return float("inf")
        bonus = exploration * np.sqrt(2.0 * np.log(max(total_pulls, 1)) / self.pulls)
        return self.mean_reward + bonus


def anytime_discover(
    model: KGEModel,
    graph: KnowledgeGraph,
    budget_seconds: float,
    strategy: str | SamplingStrategy = "entity_frequency",
    scheduler: str = "ucb",
    top_n: int = 50,
    batch_candidates: int = 100,
    exploration: float = 1.0,
    seed: int = 0,
    stats: GraphStatistics | None = None,
    max_pulls: int = 10_000,
    engine: RankingEngine | None = None,
    cache_size: int = 512,
) -> AnytimeResult:
    """Discover facts until the wall-clock budget is exhausted.

    Parameters
    ----------
    budget_seconds:
        Wall-clock budget; the loop stops at the first pull boundary after
        it is spent.
    scheduler:
        ``"ucb"`` (bandit) or ``"round_robin"`` (fair baseline).
    batch_candidates:
        Candidate budget of a single pull (one mesh-grid round).
    exploration:
        UCB exploration constant ``c``; ignored by round-robin.
    max_pulls:
        Hard safety cap on the number of pulls.
    engine:
        A shared :class:`~repro.kge.ranking.RankingEngine`; built from
        ``cache_size`` when omitted.  The score-row cache matters here:
        successive pulls of the same relation re-sample popular
        subjects, and their ``(s, r)`` rows are served from the cache
        instead of being re-scored.
    cache_size:
        LRU score-row cache entries when ``engine`` is omitted.
    """
    if scheduler not in _SCHEDULERS:
        raise ValueError(f"scheduler must be one of {_SCHEDULERS}, got {scheduler!r}")
    if budget_seconds <= 0:
        raise ValueError("budget_seconds must be positive")
    if batch_candidates < 1:
        raise ValueError("batch_candidates must be >= 1")

    rng = np.random.default_rng(seed)
    train = graph.train
    if stats is None:
        stats = GraphStatistics(train)
    if isinstance(strategy, str):
        strategy = create_strategy(strategy)
    strategy.prepare(stats)

    relations = [int(r) for r in train.unique_relations()]
    arms = {r: _RelationArm(r) for r in relations}
    sample_size = int(np.sqrt(batch_candidates)) + 2
    if engine is None:
        engine = RankingEngine(cache_size=cache_size)
    run = _DiscoveryRun(model, train, engine, top_n)
    registry = get_registry()
    watch = Stopwatch()
    total_pulls = 0
    rr_cursor = 0

    with span("discover"):
        while watch.elapsed_seconds < budget_seconds and total_pulls < max_pulls:
            active = [arm for arm in arms.values() if not arm.exhausted]
            if not active:
                break
            if scheduler == "round_robin":
                arm = active[rr_cursor % len(active)]
                rr_cursor += 1
            else:
                arm = max(
                    active, key=lambda a: a.ucb_score(total_pulls, exploration)
                )
            total_pulls += 1
            registry.counter("discover.pulls_count").inc()

            with span("discover.generate"):
                subjects = strategy.sample(
                    SUBJECT, sample_size, rng, relation=arm.relation
                )
                objects = strategy.sample(
                    OBJECT, sample_size, rng, relation=arm.relation
                )
                candidates, keys = _unseen_candidates(
                    _mesh_candidates([subjects], [arm.relation], [objects]),
                    train,
                    arm.seen_keys,
                )
                candidates = candidates[:batch_candidates]
                arm.seen_keys = np.union1d(arm.seen_keys, keys[:batch_candidates])
            registry.counter("discover.candidates_count").inc(len(candidates))

            arm.pulls += 1
            if len(candidates) == 0:
                # Nothing new to try for this relation: retire the arm.
                arm.exhausted = True
                continue

            arm.total_reward += int(run.rank(candidates).sum()) / len(candidates)

    elapsed = watch.elapsed_seconds
    facts, ranks, ranking_stats, _ = run.finish()
    return AnytimeResult(
        facts=facts,
        ranks=ranks,
        scheduler=scheduler,
        budget_seconds=budget_seconds,
        elapsed_seconds=elapsed,
        pulls={r: arms[r].pulls for r in relations},
        rewards={r: arms[r].mean_reward for r in relations},
        exhausted={r: arms[r].exhausted for r in relations},
        ranking_stats=ranking_stats,
    )
