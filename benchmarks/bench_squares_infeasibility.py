"""§4.3 — CLUSTERING SQUARES is excluded for its prohibitive cost.

The paper measured ~54 hours for one CLUSTERING SQUARES configuration on
the 14.5k-entity FB15K-237 (98 facts/hour) against 2–3 hours for the
other strategies.  That blow-up is a *scale* effect: the squares
coefficient costs Θ(Σ_v deg(v)²·avg_deg) while the linear strategies cost
Θ(M).  On the ~100×-downscaled replicas the absolute gap compresses, so
this benchmark demonstrates the mechanism the paper hit:

1. CS is the most expensive weight computation on the largest replica;
2. CS is orders of magnitude above the linear strategies (UR/EF/GD);
3. CS's cost grows faster with graph size than every other strategy's,
   which is exactly what made it infeasible at the paper's scale.

The gated timings use ``GraphStatistics(backend="networkx")``, the
per-node computation AmpliGraph's strategies run and so the faithful
runtime profile of the paper.  The default blocked CSR kernels are
timed next to it and reported as a finding, not gated: at replica scale
they remove most of the squares bottleneck the paper hit.
"""

from __future__ import annotations

import time

from common import save_and_print

from repro.discovery import available_strategies, create_strategy
from repro.experiments import format_table
from repro.kg import GraphStatistics, KGProfile, generate_kg, load_dataset


def _weight_time(graph, name: str, backend: str = "networkx") -> float:
    stats = GraphStatistics(graph.train, backend=backend)  # fresh: no cached metrics
    strategy = create_strategy(name)
    start = time.perf_counter()
    strategy.prepare(stats)
    return time.perf_counter() - start


def _scaled_graph(num_entities: int):
    return generate_kg(
        KGProfile(
            name=f"scale-{num_entities}",
            num_entities=num_entities,
            num_relations=8,
            num_triples=num_entities * 9,
            num_types=6,
            popularity_exponent=0.9,
            triangle_closure_prob=0.2,
            seed=99,
        )
    )


def test_squares_weight_cost_dominates(benchmark):
    graph = load_dataset("yago310-like")
    benchmark.pedantic(
        lambda: _weight_time(graph, "cluster_squares"), rounds=1, iterations=1
    )

    timings = {name: _weight_time(graph, name) for name in available_strategies()}
    rows = [
        {"strategy": name, "weight_seconds": round(seconds, 4)}
        for name, seconds in timings.items()
    ]

    # Scaling sweep: CS cost vs graph size against CT (its nearest rival).
    sizes = (150, 400, 1000)
    scaling_rows = []
    cs_times, ct_times = [], []
    for size in sizes:
        scaled = _scaled_graph(size)
        cs = _weight_time(scaled, "cluster_squares")
        ct = _weight_time(scaled, "cluster_triangles")
        cs_times.append(cs)
        ct_times.append(ct)
        blocked_cs = _weight_time(scaled, "cluster_squares", "sparse")
        blocked_ct = _weight_time(scaled, "cluster_triangles", "sparse")
        scaling_rows.append(
            {
                "entities": size,
                "squares_seconds": round(cs, 4),
                "triangles_seconds": round(ct, 4),
                "ratio": round(cs / max(ct, 1e-9), 1),
                "blocked_ratio": round(blocked_cs / max(blocked_ct, 1e-9), 1),
            }
        )

    # Finding, not gated: the same comparison on the default blocked kernels.
    linear_names = ("uniform_random", "entity_frequency", "graph_degree")
    blocked = {
        name: _weight_time(graph, name, "sparse")
        for name in ("cluster_squares",) + linear_names
    }
    blocked_row = {
        "backend": "sparse (blocked CSR)",
        "squares_seconds": round(blocked["cluster_squares"], 4),
        "slowest_linear_seconds": round(max(blocked[s] for s in linear_names), 4),
        "ratio": round(
            blocked["cluster_squares"]
            / max(max(blocked[s] for s in linear_names), 1e-9),
            1,
        ),
    }

    save_and_print(
        "squares_infeasibility",
        format_table(
            rows,
            title="§4.3 — weight-computation cost per strategy "
            "(yago310-like, networkx backend)",
        )
        + "\n\n"
        + format_table(
            scaling_rows,
            title="§4.3 — CLUSTERING SQUARES cost scaling with graph size "
            "(networkx; blocked_ratio: blocked CSR kernels)",
        )
        + "\n\n"
        + format_table(
            [blocked_row],
            title="Finding — CLUSTERING SQUARES vs linear strategies on the "
            "default blocked kernels (yago310-like, not gated)",
        ),
    )

    # 1. CS is the single most expensive strategy to prepare.
    assert timings["cluster_squares"] == max(timings.values())
    # 2. Orders of magnitude above the linear strategies.
    linear = max(timings[s] for s in linear_names)
    assert timings["cluster_squares"] > 20 * linear
    # 3. The CS/CT cost ratio widens as the graph grows — the paper-scale
    # infeasibility mechanism.
    assert cs_times[-1] / ct_times[-1] > cs_times[0] / ct_times[0]
