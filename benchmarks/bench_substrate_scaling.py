"""Out-of-core substrate scaling — storage backends across 1×/10×/50×.

The sharded substrate makes two performance claims this benchmark pins:

1. **Kernel speedup.**  The blocked CSR squares kernel
   (:func:`repro.kg.blocked.square_clustering_blocked`) replaces the
   retained Θ(Σ deg²) Python reference.  At 1× replica scale the blocked
   kernel must be ≥10× faster (it is typically hundreds of times
   faster); the outputs are asserted bit-identical first.
2. **Bounded residency.**  The full statistics suite — degree,
   triangles, clustering coefficient *and* squares — runs at 1×, 10×
   and 50× replica scale on both backends (materialised vs mmap) inside
   a bounded peak RSS, and at full YAGO3-10 scale (123k entities,
   ~1.09M triples) the streaming generator plus the complete suite stay
   under ``FULL_SCALE_RSS_LIMIT_MIB``.  A dense adjacency at that scale
   would be ~121 GiB; the 50× gate (``SCALED_RSS_LIMIT_MIB``) sits two
   orders of magnitude below the dense footprint.

Every stats measurement runs in a fresh *spawned* subprocess that
reports its own ``VmHWM`` from ``/proc/self/status`` (Linux only), so
each row is a per-measurement high-water mark, not contaminated by
whatever the pytest process allocated before.  ``ru_maxrss`` would not
do: Linux carries it across ``exec``, so a spawned child reports its
parent's peak when that is higher.

Results: ``benchmarks/results/BENCH_substrate.json`` plus the rendered
table in ``benchmarks/results/substrate_scaling.txt``.
"""

from __future__ import annotations

import json
import multiprocessing as mp
import tempfile
import time
from pathlib import Path

import numpy as np

from common import RESULTS_DIR, save_and_print

from repro.experiments import format_table
from repro.kg import (
    DATASET_PROFILES,
    load_dataset,
    square_clustering_blocked,
    square_clustering_reference,
    undirected_adjacency,
)

BASE_PROFILE = DATASET_PROFILES["yago310-like"]
SCALES = (1, 10, 50)
BACKENDS = ("memory", "mmap")

#: Minimum blocked-kernel speedup over the Python reference at 1×.
SQUARES_SPEEDUP_FLOOR = 10.0
#: Peak-RSS gate for the complete stats suite at 50× replica scale.
SCALED_RSS_LIMIT_MIB = 1024.0
#: Peak-RSS gate for full-scale generation and statistics (measured
#: ~240 MiB generating and ~270 MiB for the stats suite; the gate
#: leaves headroom for allocator noise while staying far below the
#: ~121 GiB a dense adjacency would need).
FULL_SCALE_RSS_LIMIT_MIB = 1024.0


def _peak_rss_mib() -> float:
    """This process's own resident high-water mark (``VmHWM``), in MiB."""
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("/proc/self/status has no VmHWM line")


def _generate_worker(profile_name, factor, store_dir, conn):
    """Child: stream a scaled replica into a store, report time + RSS."""
    from repro.kg import (
        DATASET_PROFILES,
        FULL_SCALE_PROFILES,
        generate_kg_streaming,
        scale_profile,
    )

    profile = (
        FULL_SCALE_PROFILES[profile_name]
        if profile_name in FULL_SCALE_PROFILES
        else DATASET_PROFILES[profile_name]
    )
    if factor != 1:
        profile = scale_profile(profile, factor)
    start = time.perf_counter()
    graph = generate_kg_streaming(profile, store_dir)
    seconds = time.perf_counter() - start
    conn.send(
        {
            "seconds": seconds,
            "peak_rss_mib": _peak_rss_mib(),
            "num_entities": graph.num_entities,
            "num_triples": graph.num_triples,
        }
    )
    conn.close()


def _stats_worker(store_dir, mmap, conn):
    """Child: run the full statistics suite, report time + RSS + sums."""
    from repro.kg import GraphStatistics, load_kg_store

    graph = load_kg_store(store_dir, mmap=mmap)
    stats = GraphStatistics(graph.train)
    start = time.perf_counter()
    fingerprint = [
        float(stats.degree.sum()),
        float(stats.triangles.sum()),
        float(stats.clustering_coefficient.sum()),
        float(stats.squares_clustering.sum()),
    ]
    seconds = time.perf_counter() - start
    conn.send(
        {
            "seconds": seconds,
            "peak_rss_mib": _peak_rss_mib(),
            "fingerprint": fingerprint,
        }
    )
    conn.close()


def _run_in_subprocess(target, *args):
    ctx = mp.get_context("spawn")
    parent, child = ctx.Pipe(duplex=False)
    proc = ctx.Process(target=target, args=(*args, child))
    proc.start()
    child.close()
    try:
        result = parent.recv()
    finally:
        proc.join(timeout=600)
    return result


def _squares_speedup_gate():
    """Blocked vs reference squares at 1×: bit-identical and ≥10× faster."""
    adj = undirected_adjacency(load_dataset("yago310-like").train)
    start = time.perf_counter()
    reference = square_clustering_reference(adj)
    reference_s = time.perf_counter() - start

    square_clustering_blocked(adj)  # warm-up (scipy init)
    start = time.perf_counter()
    blocked = square_clustering_blocked(adj)
    blocked_s = time.perf_counter() - start

    np.testing.assert_array_equal(blocked, reference)
    speedup = reference_s / blocked_s
    assert speedup >= SQUARES_SPEEDUP_FLOOR, (
        f"blocked squares only {speedup:.1f}× faster than the reference "
        f"(floor {SQUARES_SPEEDUP_FLOOR}×)"
    )
    return {
        "reference_seconds": round(reference_s, 3),
        "blocked_seconds": round(blocked_s, 4),
        "speedup": round(speedup, 1),
        "bit_identical": True,
    }


def test_substrate_scaling():
    squares_gate = _squares_speedup_gate()

    rows: list[dict] = []
    with tempfile.TemporaryDirectory(prefix="bench-substrate-") as tmp:
        tmp = Path(tmp)
        for factor in SCALES:
            store = tmp / f"x{factor}"
            generation = _run_in_subprocess(
                _generate_worker, BASE_PROFILE.name, factor, store
            )
            fingerprints = {}
            for backend in BACKENDS:
                stats = _run_in_subprocess(
                    _stats_worker, store, backend == "mmap"
                )
                fingerprints[backend] = stats.pop("fingerprint")
                rows.append(
                    {
                        "scale": f"{factor}x",
                        "entities": generation["num_entities"],
                        "triples": generation["num_triples"],
                        "backend": backend,
                        "generate_s": round(generation["seconds"], 2),
                        "stats_s": round(stats["seconds"], 2),
                        "stats_rss_mib": round(stats["peak_rss_mib"], 1),
                    }
                )
            # The two storage backends must compute identical statistics.
            assert fingerprints["memory"] == fingerprints["mmap"], factor

        # RSS gate at the largest replica scale, both backends.
        for row in rows:
            if row["scale"] == f"{SCALES[-1]}x":
                assert row["stats_rss_mib"] <= SCALED_RSS_LIMIT_MIB, row

        # Full-scale YAGO3-10: generate, persist, full suite under budget.
        full_store = tmp / "yago310-full"
        full_generation = _run_in_subprocess(
            _generate_worker, "yago310-full", 1, full_store
        )
        full_stats = _run_in_subprocess(_stats_worker, full_store, True)
        assert full_generation["peak_rss_mib"] <= FULL_SCALE_RSS_LIMIT_MIB
        assert full_stats["peak_rss_mib"] <= FULL_SCALE_RSS_LIMIT_MIB
        full_scale = {
            "profile": "yago310-full",
            "num_entities": full_generation["num_entities"],
            "num_triples": full_generation["num_triples"],
            "generate_seconds": round(full_generation["seconds"], 2),
            "generate_rss_mib": round(full_generation["peak_rss_mib"], 1),
            "stats_seconds": round(full_stats["seconds"], 2),
            "stats_rss_mib": round(full_stats["peak_rss_mib"], 1),
            "includes_squares": True,
        }
        rows.append(
            {
                "scale": "full",
                "entities": full_scale["num_entities"],
                "triples": full_scale["num_triples"],
                "backend": "mmap",
                "generate_s": full_scale["generate_seconds"],
                "stats_s": full_scale["stats_seconds"],
                "stats_rss_mib": full_scale["stats_rss_mib"],
            }
        )

    payload = {
        "base_profile": BASE_PROFILE.name,
        "scales": [f"{s}x" for s in SCALES] + ["full"],
        "squares_kernel_gate": squares_gate,
        "gates": {
            "squares_speedup_floor": SQUARES_SPEEDUP_FLOOR,
            "scaled_rss_limit_mib": SCALED_RSS_LIMIT_MIB,
            "full_scale_rss_limit_mib": FULL_SCALE_RSS_LIMIT_MIB,
        },
        "full_scale": full_scale,
        "scaling": rows,
        "note": (
            "each stats measurement runs in a fresh spawned subprocess so "
            "peak_rss is per-measurement; statistics cover degree, "
            "triangles, clustering coefficient and squares clustering"
        ),
    }
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    (RESULTS_DIR / "BENCH_substrate.json").write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )

    save_and_print(
        "substrate_scaling",
        format_table(
            rows,
            title=(
                f"substrate scaling ({BASE_PROFILE.name}; blocked squares "
                f"{squares_gate['speedup']}× over the Python reference)"
            ),
        ),
    )
