"""Golden outputs of the three discovery entry points.

Each case pins the exact facts and ranks one entry point returns on the
shared ``tiny_graph`` fixtures, as a SHA-256 digest of the ``int64``
fact rows followed by the ``float64`` ranks.  The digests were recorded
before ``discover_facts``, ``anytime_discover`` and
``exhaustive_discover_facts`` were put on one generate → rank → keep
core, so any change to sampling order, dedup, filtering or ranking shows
up here as a changed digest.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.discovery import (
    anytime_discover,
    discover_facts,
    exhaustive_discover_facts,
)
from repro.kg import GraphStatistics


def _digest(result) -> tuple[int, str]:
    facts = np.ascontiguousarray(result.facts, dtype=np.int64)
    ranks = np.ascontiguousarray(result.ranks, dtype=np.float64)
    digest = hashlib.sha256(facts.tobytes() + ranks.tobytes()).hexdigest()
    return len(ranks), digest[:16]


@pytest.fixture(scope="module")
def models(trained_distmult, trained_transe):
    return {"distmult": trained_distmult, "transe": trained_transe}


@pytest.fixture(scope="module")
def stats(tiny_graph):
    return GraphStatistics(tiny_graph.train)


DISCOVER = {
    ("distmult", "uniform_random"): (110, "c0199757d40c9bce"),
    ("distmult", "entity_frequency"): (120, "c0526356d365fe0e"),
    ("distmult", "graph_degree"): (111, "79bca6c0d65ee22c"),
    ("distmult", "cluster_coefficient"): (109, "513a15898fe62d5f"),
    ("distmult", "cluster_triangles"): (114, "eb3d02df110a74d0"),
    ("transe", "uniform_random"): (91, "37856a69b416ba06"),
    ("transe", "entity_frequency"): (112, "be057826d6930d81"),
    ("transe", "graph_degree"): (99, "6bd880c32463f92b"),
    ("transe", "cluster_coefficient"): (101, "d648b10d85068a24"),
    ("transe", "cluster_triangles"): (121, "d53b71d65631e84a"),
}

ANYTIME = {
    "round_robin": (522, "a8495f3f6c639c2a"),
    "ucb": (539, "4fae0a5bf1ae8bee"),
}

EXHAUSTIVE = (176, "3f7858cd57fd97b2")


@pytest.mark.parametrize("model_name,strategy", sorted(DISCOVER))
def test_discover_facts(models, tiny_graph, stats, model_name, strategy):
    result = discover_facts(
        models[model_name],
        tiny_graph,
        strategy=strategy,
        top_n=10,
        max_candidates=100,
        seed=3,
        stats=stats,
    )
    assert _digest(result) == DISCOVER[model_name, strategy]


@pytest.mark.parametrize("scheduler", sorted(ANYTIME))
def test_anytime_discover(trained_distmult, tiny_graph, stats, scheduler):
    # The wall budget is far beyond what 40 pulls take, so max_pulls
    # alone ends the run and the output is a pure function of the seed.
    result = anytime_discover(
        trained_distmult,
        tiny_graph,
        budget_seconds=600.0,
        scheduler=scheduler,
        top_n=10,
        batch_candidates=50,
        seed=5,
        stats=stats,
        max_pulls=40,
    )
    assert sum(result.pulls.values()) == 40
    assert _digest(result) == ANYTIME[scheduler]


def test_exhaustive_discover_facts(trained_distmult, tiny_graph):
    result = exhaustive_discover_facts(
        trained_distmult,
        tiny_graph,
        top_n=5,
        max_candidates_per_relation=300,
        seed=2,
    )
    assert _digest(result) == EXHAUSTIVE
