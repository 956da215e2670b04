"""Command-line interface: ``python -m repro <command>``.

Commands
--------

* ``datasets`` — list the built-in replica datasets with shape statistics;
* ``analyze`` — full structural report of a dataset, including relation
  cardinalities and inverse-relation test-leakage detection;
* ``protocol`` — held-out discovery evaluation (hide → train → discover →
  recall/precision);
* ``train`` — train a KGE model on a dataset and checkpoint it;
* ``evaluate`` — link-prediction metrics of a checkpoint on a split;
* ``discover`` — run fact discovery with a checkpointed model;
* ``compare`` — compare sampling strategies on one dataset/model;
* ``grid`` — sweep the ``top_n`` × ``max_candidates`` hyperparameter grid;
* ``journal`` — summarise a campaign run-journal (completed / failed /
  in-flight cells with failure fingerprints);
* ``chaos`` — run a seeded fault schedule (torn journal write, failed
  matrix cell) against a small campaign and assert the recovery
  invariants: a replayable journal and post-recovery results
  bit-identical to a fault-free run;
* ``serve`` — serve checkpoints over HTTP: a long-lived query server with
  a model registry, request coalescing and live ``/metrics``;
* ``query`` — one-shot typed client against a running ``repro serve``;
* ``lint`` — run the domain-aware static analyser (``repro.lint``) over
  the codebase; all arguments are forwarded to ``repro-lint``.

Long campaigns are resumable: ``repro reproduce --journal run.jsonl``
journals every matrix cell, and re-running the same command after a
crash skips completed cells and re-attempts failed ones (see
:mod:`repro.resilience`).

Any ``DATASET`` argument accepts either a registry name
(``fb15k237-like``, …) or a path to a directory of
``train.txt``/``valid.txt``/``test.txt`` TSV files.
"""

from __future__ import annotations

import argparse
import sys
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from .discovery import (
    STRATEGY_ABBREVIATIONS,
    available_strategies,
    create_strategy,
    discover_facts,
)
from .experiments import format_table, hyperparameter_grid
from .kg import (
    DATASET_PROFILES,
    GraphStatistics,
    KnowledgeGraph,
    load_dataset,
)
from .kge import (
    ModelConfig,
    TrainConfig,
    available_models,
    evaluate_ranking,
    fit,
    load_model,
    save_model,
)

__all__ = ["main", "build_parser"]


@contextmanager
def _metrics_sink(path: str | None):
    """Enable observability for one command and write the snapshot on exit.

    A fresh registry keeps the snapshot scoped to this command (nothing
    from imports or earlier runs leaks in).  The snapshot is written even
    when the command fails, so a crashed run still leaves its telemetry.
    """
    if path is None:
        yield
        return
    from .obs import MetricsRegistry, use_registry, write_snapshot

    registry = MetricsRegistry()
    try:
        with use_registry(registry):
            yield
    finally:
        write_snapshot(registry, path)
        print(f"metrics snapshot written to {path}")


def _load_graph(name: str) -> KnowledgeGraph:
    """Resolve a dataset argument: registry name, TSV dir, or KG store."""
    from .kg import resolve_dataset

    try:
        return resolve_dataset(name)
    except KeyError as error:
        raise SystemExit(f"error: {error.args[0]}") from None


def _cmd_datasets(args: argparse.Namespace) -> int:
    rows = []
    for name in DATASET_PROFILES:
        graph = load_dataset(name)
        stats = GraphStatistics(graph.train)
        rows.append(
            {
                "dataset": name,
                "entities": graph.num_entities,
                "relations": graph.num_relations,
                "train": len(graph.train),
                "valid": len(graph.valid),
                "test": len(graph.test),
                "avg_clustering": round(stats.average_clustering, 4),
                "complement": graph.complement_size(),
            }
        )
    print(format_table(rows, title="Built-in dataset replicas"))
    return 0


def _cmd_store_generate(args: argparse.Namespace) -> int:
    from .kg import (
        DATASET_PROFILES,
        FULL_SCALE_PROFILES,
        generate_kg_streaming,
        kg_store_exists,
        scale_profile,
    )

    profile = FULL_SCALE_PROFILES.get(args.profile) or DATASET_PROFILES.get(
        args.profile
    )
    if profile is None:
        raise SystemExit(
            f"error: unknown profile {args.profile!r}; available: "
            f"{sorted(DATASET_PROFILES) + sorted(FULL_SCALE_PROFILES)}"
        )
    if args.scale != 1.0:
        profile = scale_profile(profile, args.scale)
    out = Path(args.out)
    if kg_store_exists(out) and not args.force:
        raise SystemExit(
            f"error: {out} already holds a KG store (use --force to regenerate)"
        )
    graph = generate_kg_streaming(profile, out, chunk_size=args.chunk_size)
    print(
        f"wrote {graph.name}: {graph.num_entities} entities, "
        f"{graph.num_relations} relations, "
        f"{len(graph.train)}/{len(graph.valid)}/{len(graph.test)} "
        f"train/valid/test triples -> {out}"
    )
    print(f"use it as dataset argument: store:{out}")
    return 0


def _cmd_store_info(args: argparse.Namespace) -> int:
    from .kg import kg_store_exists, load_kg_store

    directory = Path(args.directory)
    if not kg_store_exists(directory):
        raise SystemExit(f"error: {directory} is not a complete KG store")
    graph = load_kg_store(directory, verify=not args.no_verify)
    size_bytes = sum(
        p.stat().st_size for p in directory.iterdir() if p.is_file()
    )
    rows = [
        {
            "dataset": graph.name,
            "entities": graph.num_entities,
            "relations": graph.num_relations,
            "train": len(graph.train),
            "valid": len(graph.valid),
            "test": len(graph.test),
            "size_mib": round(size_bytes / (1 << 20), 1),
        }
    ]
    print(format_table(rows, title=f"KG store at {directory}"))
    if not args.no_verify:
        print("checksums: OK (all columns verified against manifest)")
    return 0


def _cmd_reproduce(args: argparse.Namespace) -> int:
    """Regenerate the paper's headline tables without pytest."""
    import numpy as np

    from .discovery import STRATEGY_ABBREVIATIONS
    from .experiments import group_rows, run_matrix
    from .kg import PAPER_METADATA

    out_dir = Path(args.output)
    out_dir.mkdir(parents=True, exist_ok=True)

    datasets = tuple(args.datasets) if args.datasets else None
    from .experiments import PAPER_DATASETS, PAPER_MODELS, PAPER_STRATEGIES

    print("running the dataset × model × strategy matrix "
          "(first run trains the models; later runs reuse .model_cache/)...")
    if args.journal:
        print(f"  journalling cells to {args.journal} (resumable; rerun the "
              "same command after a crash to continue)")
    rows = run_matrix(
        datasets=datasets or PAPER_DATASETS,
        models=PAPER_MODELS if not args.quick else ("distmult", "transe"),
        strategies=PAPER_STRATEGIES,
        top_n=args.top_n,
        max_candidates=args.max_candidates,
        seed=args.seed,
        journal_path=args.journal,
        max_cell_attempts=args.max_cell_attempts,
        on_error="degrade" if args.journal else "raise",
        cell_deadline=args.cell_deadline,
    )
    failed = [r for r in rows if r.status != "ok"]
    if failed:
        print(f"  {len(failed)} cell(s) failed and were degraded to "
              "partial rows:")
        for row in failed:
            print(f"    {row.dataset}/{row.model}/{row.strategy}: {row.error}")
        rows = [r for r in rows if r.status == "ok"]

    def write(name: str, text: str) -> None:
        (out_dir / f"{name}.txt").write_text(text + "\n", encoding="utf-8")
        print(f"  wrote {out_dir / (name + '.txt')}")

    # Table 1.
    table1 = [
        {
            "Dataset": meta.name,
            "Training": meta.training,
            "Entities": meta.entities,
            "Relations": meta.relations,
        }
        for meta in PAPER_METADATA.values()
    ]
    write("table1", format_table(table1, title="Table 1 (paper originals)"))

    # Figures 2/4/6 as tables per dataset.
    for figure, attribute, title in (
        ("fig2_runtime", "runtime_seconds", "Figure 2 — runtime (s)"),
        ("fig4_mrr", "mrr", "Figure 4 — discovery MRR"),
        ("fig6_efficiency", "efficiency_facts_per_hour", "Figure 6 — facts/hour"),
    ):
        sections = []
        for dataset, dataset_rows in group_rows(rows, "dataset").items():
            table = []
            for strategy, srows in group_rows(dataset_rows, "strategy").items():
                row = {"strategy": STRATEGY_ABBREVIATIONS[strategy]}
                for r in srows:
                    value = getattr(r, attribute)
                    row[r.model] = round(value, 4 if attribute == "mrr" else 3)
                table.append(row)
            sections.append(format_table(table, title=f"{title} on {dataset}"))
        write(figure, "\n\n".join(sections))

    # Summary of findings.
    summary = []
    for strategy, srows in group_rows(rows, "strategy").items():
        summary.append(
            {
                "strategy": STRATEGY_ABBREVIATIONS[strategy],
                "mean_mrr": round(float(np.mean([r.mrr for r in srows])), 4),
                "mean_facts": round(float(np.mean([r.num_facts for r in srows]))),
                "mean_facts_per_hour": round(
                    float(np.mean([r.efficiency_facts_per_hour for r in srows]))
                ),
            }
        )
    write("summary", format_table(summary, title="§4.2.4 — summary of findings"))
    print("done; benchmark assertions live in benchmarks/ (pytest benchmarks/)")
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    from .kg import dataset_report, detect_inverse_leakage, relation_profiles

    graph = _load_graph(args.dataset)
    report = dataset_report(graph)
    cardinalities = report.pop("cardinalities")
    rows = [{"property": k, "value": v} for k, v in report.items()]
    print(format_table(rows, title=f"Dataset report: {graph.name}"))
    print()
    print(
        format_table(
            [{"cardinality": k, "relations": v} for k, v in cardinalities.items()],
            title="Relation cardinalities",
        )
    )
    if args.relations:
        print()
        rel_rows = [
            {
                "relation": graph.relations.label_of(p.relation),
                "triples": p.num_triples,
                "tails_per_head": round(p.tails_per_head, 2),
                "heads_per_tail": round(p.heads_per_tail, 2),
                "cardinality": p.cardinality,
            }
            for p in relation_profiles(graph.train)
        ]
        print(format_table(rel_rows, title="Per-relation profiles"))
    leaks = detect_inverse_leakage(graph, threshold=args.leak_threshold)
    if leaks:
        print()
        leak_rows = [
            {
                "relation": graph.relations.label_of(l.relation),
                "inverse": graph.relations.label_of(l.inverse),
                "overlap": round(l.overlap, 3),
            }
            for l in leaks
        ]
        print(
            format_table(
                leak_rows,
                title=f"Inverse-relation leakage (threshold {args.leak_threshold})",
            )
        )
    else:
        print(f"\nno inverse-relation leakage at threshold {args.leak_threshold}")
    return 0


def _cmd_protocol(args: argparse.Namespace) -> int:
    from .discovery import heldout_discovery_protocol

    graph = _load_graph(args.dataset)
    job = "negative_sampling" if args.model in ("transe", "rotate") else "kvsall"
    loss = "margin" if job == "negative_sampling" else "bce"
    result = heldout_discovery_protocol(
        graph,
        ModelConfig(args.model, dim=args.dim, seed=args.seed),
        TrainConfig(
            job=job, loss=loss, epochs=args.epochs, batch_size=128, lr=args.lr,
            label_smoothing=0.1 if job == "kvsall" else 0.0, seed=args.seed,
        ),
        strategy=args.strategy,
        hide_fraction=args.hide_fraction,
        top_n=args.top_n,
        max_candidates=args.max_candidates,
        seed=args.seed,
    )
    rows = [{"metric": k, "value": round(v, 4) if isinstance(v, float) else v}
            for k, v in result.summary().items()]
    print(
        format_table(
            rows,
            title=f"Held-out protocol: {args.strategy} on {graph.name} "
            f"({args.hide_fraction:.0%} hidden)",
        )
    )
    return 0


def _cmd_train(args: argparse.Namespace) -> int:
    from .resilience import GuardConfig

    graph = _load_graph(args.dataset)
    job = args.job
    if job == "auto":
        job = "negative_sampling" if args.model in ("transe", "rotate") else "kvsall"
    loss = {"negative_sampling": "margin", "kvsall": "bce", "1vsall": "softmax"}[job]
    config = TrainConfig(
        job=job,
        loss=loss,
        epochs=args.epochs,
        batch_size=args.batch_size,
        lr=args.lr,
        label_smoothing=args.label_smoothing if job == "kvsall" else 0.0,
        seed=args.seed,
        verbose=args.verbose,
    )
    guard = (
        None
        if args.guard == "off"
        else GuardConfig(policy=args.guard, max_epoch_retries=args.max_epoch_retries)
    )
    print(f"training {args.model} (dim={args.dim}) on {graph.name} with {job}...")
    result = fit(
        graph, ModelConfig(args.model, dim=args.dim, seed=args.seed), config,
        guard=guard,
    )
    if result.guard_report is not None and not result.guard_report.clean:
        summary = result.guard_report.summary()
        print(f"guard: {summary['guard_events_count']} event(s), "
              f"{summary['guard_epoch_retries_count']} epoch retr(ies), "
              f"{summary['guard_rollbacks_count']} rollback(s)")
    print(f"final loss: {result.losses[-1]:.4f} after {result.epochs_run} epochs")
    metrics = evaluate_ranking(result.model, graph, split="valid")
    print(f"validation MRR: {metrics.mrr:.4f}, Hits@10: {metrics.hits[10]:.4f}")
    save_model(result.model, args.output)
    print(f"checkpoint written to {args.output}")
    return 0


def _cmd_evaluate(args: argparse.Namespace) -> int:
    graph = _load_graph(args.dataset)
    model = load_model(args.checkpoint)
    metrics = evaluate_ranking(
        model, graph, split=args.split, filtered=not args.raw
    )
    rows = [
        {
            "split": args.split,
            "MRR": round(metrics.mrr, 4),
            "MR": round(metrics.mean_rank, 1),
            **{f"Hits@{k}": round(v, 4) for k, v in sorted(metrics.hits.items())},
        }
    ]
    print(format_table(rows, title=f"{args.checkpoint} on {graph.name}"))
    return 0


def _cmd_discover(args: argparse.Namespace) -> int:
    graph = _load_graph(args.dataset)
    model = load_model(args.checkpoint)
    relations = None
    if args.relations:
        relations = [graph.relations.id_of(label) for label in args.relations]
    result = discover_facts(
        model,
        graph,
        strategy=args.strategy,
        top_n=args.top_n,
        max_candidates=args.max_candidates,
        relations=relations,
        seed=args.seed,
    )
    print(
        f"{result.num_facts} facts discovered "
        f"(MRR={result.mrr():.4f}, runtime={result.runtime_seconds:.2f}s, "
        f"{result.efficiency_facts_per_hour():,.0f} facts/hour)"
    )
    order = np.argsort(result.ranks)
    limit = len(order) if args.limit == 0 else args.limit
    lines = []
    for idx in order[:limit]:
        s, r, o = graph.label_triple(tuple(result.facts[idx]))
        lines.append(f"{s}\t{r}\t{o}\t{result.ranks[idx]:.0f}")
    if args.output:
        Path(args.output).write_text("\n".join(lines) + "\n", encoding="utf-8")
        print(f"facts written to {args.output}")
    else:
        for line in lines:
            print(line)
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    graph = _load_graph(args.dataset)
    model = load_model(args.checkpoint)
    strategies = args.strategies or [
        s for s in available_strategies() if s != "cluster_squares"
    ]
    rows = []
    for name in strategies:
        result = discover_facts(
            model,
            graph,
            strategy=create_strategy(name),
            top_n=args.top_n,
            max_candidates=args.max_candidates,
            seed=args.seed,
            stats=GraphStatistics(graph.train),
        )
        rows.append(
            {
                "strategy": f"{STRATEGY_ABBREVIATIONS.get(name, '??')} ({name})",
                "facts": result.num_facts,
                "mrr": round(result.mrr(), 4),
                "runtime_s": round(result.runtime_seconds, 3),
                "facts_per_hour": round(result.efficiency_facts_per_hour()),
            }
        )
    rows.sort(key=lambda r: r["mrr"], reverse=True)
    print(format_table(rows, title=f"Sampling strategies on {graph.name}"))
    return 0


def _cmd_grid(args: argparse.Namespace) -> int:
    graph = _load_graph(args.dataset)
    model = load_model(args.checkpoint)
    points = hyperparameter_grid(
        model,
        graph,
        strategy=args.strategy,
        top_n_values=tuple(args.top_n_values),
        max_candidates_values=tuple(args.max_candidates_values),
        seed=args.seed,
        cell_deadline=args.cell_deadline,
    )
    rows = [p.to_dict() for p in points]
    print(
        format_table(
            rows,
            columns=[
                "top_n", "max_candidates", "num_facts", "mrr",
                "runtime_seconds", "efficiency_facts_per_hour",
            ],
            title=f"Hyperparameter grid: {args.strategy} on {graph.name}",
        )
    )
    return 0


def _cmd_journal(args: argparse.Namespace) -> int:
    from .experiments import CampaignState
    from .resilience import RunJournal

    journal = RunJournal(args.journal)
    if not journal.path.is_file():
        raise SystemExit(f"error: no journal at {args.journal}")
    view = journal.read()
    state = CampaignState.from_journal(journal)
    in_flight = sorted(
        key
        for key, count in state.attempts.items()
        if key not in state.completed and count > 0
    )
    print(
        format_table(
            [
                {"property": "records", "value": len(view.records)},
                {"property": "torn/corrupt lines", "value": view.corrupt_lines},
                {"property": "cells completed", "value": len(state.completed)},
                {"property": "cells started, unfinished", "value": len(in_flight)},
            ],
            title=f"Campaign journal: {args.journal}",
        )
    )
    if in_flight:
        print()
        print(
            format_table(
                [
                    {
                        "cell": key,
                        "attempts": state.attempts[key],
                        "last_error": state.last_error.get(key, "(interrupted)"),
                    }
                    for key in in_flight
                ],
                title="Unfinished cells (re-attempted on resume)",
            )
        )
    return 0


def _cmd_chaos(args: argparse.Namespace) -> int:
    """Fault-injection acceptance run: break a campaign, then prove recovery.

    Three passes over one small campaign:

    1. a fault-free baseline;
    2. a chaos pass under a seeded :class:`~repro.faults.FaultPlan`
       (a torn ``cell_succeeded`` journal append and a failed matrix
       cell) that is allowed to crash and restart;
    3. a recovery pass with faults cleared and a raised attempt budget,
       resuming the chaos journal.

    The invariants asserted at the end are the ones the campaign runner
    promises: a replayable journal (torn tails quarantined, every cell
    completed) and recovery rows bit-identical to the baseline on every
    deterministic field.
    """
    import tempfile

    from .experiments import run_matrix
    from .faults import FaultPlan, clear, install
    from .resilience import RunJournal

    def deterministic_fields(rows):
        # repr() round-trips floats bit-exactly and makes NaN comparable;
        # *_seconds timings and span traces legitimately differ per run.
        return [
            (r.dataset, r.model, r.strategy, r.status, r.num_facts,
             repr(r.mrr), repr(r.test_mrr))
            for r in rows
        ]

    campaign = dict(
        datasets=("wn18rr-like",),
        models=("distmult",),
        strategies=("uniform_random", "entity_frequency"),
        top_n=args.top_n,
        max_candidates=args.max_candidates,
        seed=args.seed,
    )

    with tempfile.TemporaryDirectory(prefix="repro-chaos-") as workdir:
        journal_path = Path(workdir) / "chaos.jsonl"

        print("pass 1/3: fault-free baseline...")
        baseline = run_matrix(**campaign)

        plan = (
            FaultPlan()
            .torn(match="cell_succeeded", times=1)
            .fail("matrix_cell", match="*entity_frequency*", times=1)
        )
        print(f"pass 2/3: chaos pass ({len(plan.faults)} faults armed, "
              f"journal {journal_path.name})...")
        install(plan)
        restarts = 0
        try:
            while True:
                try:
                    run_matrix(
                        journal_path=journal_path,
                        max_cell_attempts=args.max_cell_attempts,
                        on_error="degrade",
                        **campaign,
                    )
                    break
                except Exception as error:
                    restarts += 1
                    if restarts > 5:
                        raise SystemExit(
                            f"error: chaos campaign did not survive 5 "
                            f"restarts (last: {error})"
                        )
                    print(f"  campaign crashed ({type(error).__name__}: "
                          f"{error}); restarting from the journal")
        finally:
            clear()
        print(f"  {plan.fired()} fault(s) fired, "
              f"{restarts} restart(s)")

        print("pass 3/3: recovery pass (faults cleared, attempt budget "
              f"raised to {args.max_cell_attempts + 3})...")
        recovered = run_matrix(
            journal_path=journal_path,
            max_cell_attempts=args.max_cell_attempts + 3,
            on_error="degrade",
            **campaign,
        )

        view = RunJournal(journal_path).read()
        failures: list[str] = []
        bad_rows = [
            f"{r.dataset}/{r.model}/{r.strategy}"
            for r in recovered
            if r.status != "ok"
        ]
        if bad_rows:
            failures.append(f"cells still failed after recovery: {bad_rows}")
        if view.corrupt_lines:
            failures.append(
                f"journal replay skipped {view.corrupt_lines} corrupt "
                f"line(s) — torn tails must be quarantined, not skipped"
            )
        if deterministic_fields(recovered) != deterministic_fields(baseline):
            failures.append(
                "recovered rows differ from the fault-free baseline on "
                "deterministic fields"
            )

        checks = [
            {"invariant": "journal replayable (no corrupt lines)",
             "status": "FAIL" if view.corrupt_lines else "ok"},
            {"invariant": "all cells recovered",
             "status": "FAIL" if bad_rows else "ok"},
            {"invariant": "recovery bit-identical to baseline",
             "status": "FAIL"
             if deterministic_fields(recovered) != deterministic_fields(baseline)
             else "ok"},
        ]
        print()
        print(format_table(
            checks,
            title=f"Chaos invariants ({len(view.records)} journal records, "
                  f"journal v{view.version})",
        ))

    if failures:
        for failure in failures:
            print(f"FAIL: {failure}")
        return 1
    print("all chaos invariants hold")
    return 0


def _cmd_obs(args: argparse.Namespace) -> int:
    """Re-render a ``--metrics-out`` snapshot in another exporter format."""
    import json

    from .obs import EXPORTER_FORMATS

    path = Path(args.snapshot)
    if not path.is_file():
        raise SystemExit(f"error: no snapshot at {args.snapshot}")
    try:
        snapshot = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as error:
        raise SystemExit(
            f"error: {args.snapshot} is not a JSON metrics snapshot ({error})"
        )
    text = EXPORTER_FORMATS[args.format](snapshot)
    if args.output:
        Path(args.output).write_text(text, encoding="utf-8")
        print(f"wrote {args.output}")
    else:
        print(text, end="")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    """Serve registered checkpoints over HTTP until interrupted."""
    import time

    from .api import Session
    from .serve import start_server

    session = Session(capacity=args.capacity, cache_size=args.cache_size)
    for spec in args.models:
        dataset, sep, checkpoint = spec.partition("=")
        if not sep or not dataset or not checkpoint:
            raise SystemExit(
                f"error: --models entries must be DATASET=CHECKPOINT, got {spec!r}"
            )
        ref = session.add_model(dataset, checkpoint)
        print(f"registered {ref.model_id} <- {checkpoint}")

    server = start_server(
        session,
        host=args.host,
        port=args.port,
        max_workers=args.procs,
        deadline_seconds=args.cell_deadline,
    )
    print(
        f"serving {len(session.registry)} model(s) on {server.url} "
        f"({args.procs} workers"
        + (f", {args.cell_deadline}s request deadline" if args.cell_deadline else "")
        + "); endpoints: /healthz /metrics /v1/models /v1/rank /v1/discover "
        "/v1/classify"
    )
    try:
        if args.duration is not None:
            time.sleep(args.duration)
        else:
            while True:
                time.sleep(0.5)
    except KeyboardInterrupt:
        print("\ninterrupt: draining in-flight requests...")
    finally:
        server.close()
        print("server stopped")
    return 0


def _cmd_query(args: argparse.Namespace) -> int:
    """One-shot typed client against a running ``repro serve`` instance."""
    import json

    from .api.types import ApiError, request_type_for
    from .serve import ServeClient

    client = ServeClient(args.url, timeout_seconds=args.timeout)
    try:
        if args.endpoint == "metrics":
            print(client.metrics(), end="")
            return 0
        if args.endpoint == "health":
            print(client.health().to_json(indent=2))
            return 0
        if args.endpoint == "models":
            print(client.models().to_json(indent=2))
            return 0
        try:
            payload = json.loads(args.data) if args.data else {}
        except json.JSONDecodeError as error:
            raise SystemExit(f"error: --data is not valid JSON ({error})")
        request = request_type_for(args.endpoint).from_dict(payload)
        call = {
            "rank": client.rank,
            "discover": client.discover,
            "classify": client.classify,
        }[args.endpoint]
        print(call(request).to_json(indent=2))
        return 0
    except ApiError as error:
        print(f"error [{error.code}]: {error}", file=sys.stderr)
        return 1


def _cmd_lint(args: argparse.Namespace) -> int:
    from .lint.cli import main as lint_main

    forwarded = args.lint_args
    if forwarded and forwarded[0] == "--":
        forwarded = forwarded[1:]
    return lint_main(forwarded)


def build_parser() -> argparse.ArgumentParser:
    """The argparse tree of the CLI (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Fact discovery from knowledge graph embeddings (EDBT 2024 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("datasets", help="list built-in dataset replicas").set_defaults(
        func=_cmd_datasets
    )

    store = sub.add_parser(
        "store", help="out-of-core KG stores (generate / inspect)"
    )
    store_sub = store.add_subparsers(dest="store_command", required=True)
    store_gen = store_sub.add_parser(
        "generate", help="stream a replica profile into a mmap-backed store"
    )
    store_gen.add_argument("profile",
                           help="profile name (replica or full-scale, e.g. "
                                "yago310-full)")
    store_gen.add_argument("-o", "--out", required=True,
                           help="store directory to create")
    store_gen.add_argument("--scale", type=float, default=1.0,
                           help="scale entity/triple counts by this factor")
    store_gen.add_argument("--chunk-size", type=int, default=1 << 18,
                           help="triples sampled per streaming chunk")
    store_gen.add_argument("--force", action="store_true",
                           help="regenerate even if the store already exists")
    store_gen.set_defaults(func=_cmd_store_generate)
    store_info = store_sub.add_parser(
        "info", help="summarise a KG store and verify its checksums"
    )
    store_info.add_argument("directory")
    store_info.add_argument("--no-verify", action="store_true",
                            help="skip checksum verification")
    store_info.set_defaults(func=_cmd_store_info)

    reproduce = sub.add_parser(
        "reproduce", help="regenerate the paper's headline tables"
    )
    reproduce.add_argument("-o", "--output", default="results")
    reproduce.add_argument("--datasets", nargs="*", default=None)
    reproduce.add_argument("--quick", action="store_true",
                           help="two models instead of five")
    reproduce.add_argument("--top-n", type=int, default=50)
    reproduce.add_argument("--max-candidates", type=int, default=500)
    reproduce.add_argument("--seed", type=int, default=0)
    reproduce.add_argument("--journal", default=None,
                           help="JSONL run-journal path; makes the campaign "
                                "resumable and degrades failed cells instead "
                                "of aborting")
    reproduce.add_argument("--max-cell-attempts", type=int, default=3,
                           help="times a cell may be started (crashes count) "
                                "before it is reported as failed")
    reproduce.add_argument("--cell-deadline", type=float, default=None,
                           metavar="SECONDS",
                           help="wall-clock budget per matrix cell attempt, "
                                "checked cooperatively; overruns are "
                                "journalled as cell_timeout and charged "
                                "against the attempt budget")
    reproduce.add_argument("--metrics-out", default=None, metavar="PATH",
                           help="write a JSON metrics/span snapshot of the "
                                "run (re-render with `repro obs`)")
    reproduce.set_defaults(func=_cmd_reproduce)

    analyze = sub.add_parser("analyze", help="structural report of a dataset")
    analyze.add_argument("dataset")
    analyze.add_argument("--relations", action="store_true",
                         help="include per-relation profiles")
    analyze.add_argument("--leak-threshold", type=float, default=0.8)
    analyze.set_defaults(func=_cmd_analyze)

    protocol = sub.add_parser(
        "protocol", help="held-out discovery evaluation (hide→train→discover→score)"
    )
    protocol.add_argument("dataset")
    protocol.add_argument("model", choices=available_models())
    protocol.add_argument("--strategy", default="entity_frequency",
                          choices=available_strategies())
    protocol.add_argument("--hide-fraction", type=float, default=0.15)
    protocol.add_argument("--dim", type=int, default=32)
    protocol.add_argument("--epochs", type=int, default=40)
    protocol.add_argument("--lr", type=float, default=0.05)
    protocol.add_argument("--top-n", type=int, default=50)
    protocol.add_argument("--max-candidates", type=int, default=500)
    protocol.add_argument("--seed", type=int, default=0)
    protocol.add_argument("--metrics-out", default=None, metavar="PATH",
                          help="write a JSON metrics/span snapshot of the "
                               "run (re-render with `repro obs`)")
    protocol.set_defaults(func=_cmd_protocol)

    train = sub.add_parser("train", help="train a model and save a checkpoint")
    train.add_argument("dataset")
    train.add_argument("model", choices=available_models())
    train.add_argument("--dim", type=int, default=32)
    train.add_argument(
        "--job", choices=["auto", "negative_sampling", "kvsall", "1vsall"],
        default="auto",
    )
    train.add_argument("--epochs", type=int, default=60)
    train.add_argument("--batch-size", type=int, default=128)
    train.add_argument("--lr", type=float, default=0.05)
    train.add_argument("--label-smoothing", type=float, default=0.1)
    train.add_argument("--seed", type=int, default=0)
    train.add_argument("--verbose", action="store_true")
    train.add_argument("--guard", choices=["off", "halt", "rollback", "retry"],
                       default="retry",
                       help="divergence-guard policy (default: retry the "
                            "epoch with re-seeded negatives)")
    train.add_argument("--max-epoch-retries", type=int, default=2)
    train.add_argument("-o", "--output", default="model.npz")
    train.add_argument("--metrics-out", default=None, metavar="PATH",
                       help="write a JSON metrics/span snapshot of the "
                            "run (re-render with `repro obs`)")
    train.set_defaults(func=_cmd_train)

    evaluate = sub.add_parser("evaluate", help="link-prediction metrics of a checkpoint")
    evaluate.add_argument("checkpoint")
    evaluate.add_argument("dataset")
    evaluate.add_argument("--split", choices=["train", "valid", "test"], default="test")
    evaluate.add_argument("--raw", action="store_true", help="raw (unfiltered) ranking")
    evaluate.set_defaults(func=_cmd_evaluate)

    discover = sub.add_parser("discover", help="discover facts with a checkpoint")
    discover.add_argument("checkpoint")
    discover.add_argument("dataset")
    discover.add_argument("--strategy", default="entity_frequency",
                          choices=available_strategies())
    discover.add_argument("--top-n", type=int, default=50)
    discover.add_argument("--max-candidates", type=int, default=500)
    discover.add_argument("--relations", nargs="*", default=None,
                          help="relation labels to discover facts for "
                               "(default: all)")
    discover.add_argument("--seed", type=int, default=0)
    discover.add_argument("--limit", type=int, default=20,
                          help="facts to print (0 = all)")
    discover.add_argument("-o", "--output", default=None,
                          help="write facts as TSV instead of printing")
    discover.add_argument("--metrics-out", default=None, metavar="PATH",
                          help="write a JSON metrics/span snapshot of the "
                               "run (re-render with `repro obs`)")
    discover.set_defaults(func=_cmd_discover)

    compare = sub.add_parser("compare", help="compare sampling strategies")
    compare.add_argument("checkpoint")
    compare.add_argument("dataset")
    compare.add_argument("--strategies", nargs="*", choices=available_strategies())
    compare.add_argument("--top-n", type=int, default=50)
    compare.add_argument("--max-candidates", type=int, default=500)
    compare.add_argument("--seed", type=int, default=0)
    compare.set_defaults(func=_cmd_compare)

    grid = sub.add_parser("grid", help="hyperparameter grid sweep")
    grid.add_argument("checkpoint")
    grid.add_argument("dataset")
    grid.add_argument("--strategy", default="uniform_random",
                      choices=available_strategies())
    grid.add_argument("--top-n-values", type=int, nargs="+",
                      default=[10, 20, 30, 40, 50, 70])
    grid.add_argument("--max-candidates-values", type=int, nargs="+",
                      default=[50, 100, 200, 300, 400, 500])
    grid.add_argument("--seed", type=int, default=0)
    grid.add_argument("--cell-deadline", type=float, default=None,
                      metavar="SECONDS",
                      help="wall-clock budget per grid point, checked "
                           "cooperatively between relations")
    grid.set_defaults(func=_cmd_grid)

    journal = sub.add_parser(
        "journal", help="summarise a campaign run-journal"
    )
    journal.add_argument("journal", help="path to a JSONL run-journal")
    journal.set_defaults(func=_cmd_journal)

    chaos = sub.add_parser(
        "chaos",
        help="fault-injection acceptance run against a small campaign",
        description="Runs a fault-free baseline, a chaos pass under a "
        "seeded fault schedule (torn journal write, failed matrix cell), "
        "and a recovery pass resuming the same journal — then asserts a "
        "replayable journal and bit-identical recovered results.",
    )
    chaos.add_argument("--seed", type=int, default=0)
    chaos.add_argument("--top-n", type=int, default=50)
    chaos.add_argument("--max-candidates", type=int, default=100)
    chaos.add_argument("--max-cell-attempts", type=int, default=2,
                       help="attempt budget during the chaos pass (the "
                            "recovery pass raises it by 3)")
    chaos.set_defaults(func=_cmd_chaos)

    obs = sub.add_parser(
        "obs", help="re-render a --metrics-out snapshot"
    )
    obs.add_argument("snapshot", help="path to a JSON metrics snapshot")
    obs.add_argument("--format", choices=["json", "prometheus", "table"],
                     default="table")
    obs.add_argument("-o", "--output", default=None,
                     help="write instead of printing")
    obs.set_defaults(func=_cmd_obs)

    serve = sub.add_parser(
        "serve",
        help="serve checkpoints over HTTP (discovery-as-a-service)",
        description="Load checksummed checkpoints into the model registry "
        "and answer /v1/rank, /v1/discover and /v1/classify queries from "
        "concurrent clients, with live Prometheus metrics at /metrics. "
        "Responses are bit-identical to the offline discover/evaluate "
        "commands (see docs/api.md for the wire schema).",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8350,
                       help="listen port (0 picks a free one)")
    serve.add_argument("--models", nargs="+", required=True,
                       metavar="DATASET=CHECKPOINT",
                       help="checkpoints to register, e.g. "
                            "fb15k237-like=model.npz (repeatable)")
    serve.add_argument("--procs", type=int, default=8,
                       help="bounded worker threads handling requests")
    serve.add_argument("--cell-deadline", type=float, default=None,
                       metavar="SECONDS",
                       help="per-request deadline; overruns answer a typed "
                            "504 deadline_exceeded envelope")
    serve.add_argument("--capacity", type=int, default=4,
                       help="models kept loaded at once (LRU-evicted, "
                            "in-flight models are never dropped)")
    serve.add_argument("--cache-size", type=int, default=4096,
                       help="score rows cached per model across requests")
    serve.add_argument("--duration", type=float, default=None,
                       metavar="SECONDS",
                       help="serve for this long then drain and exit "
                            "(default: until Ctrl-C)")
    serve.add_argument("--metrics-out", default=None, metavar="PATH",
                       help="write a JSON metrics/span snapshot on shutdown "
                            "(re-render with `repro obs`)")
    serve.set_defaults(func=_cmd_serve)

    query = sub.add_parser(
        "query",
        help="one-shot client for a running `repro serve` server",
    )
    query.add_argument("url", help="server base URL, e.g. http://127.0.0.1:8350")
    query.add_argument("endpoint",
                       choices=["health", "models", "metrics", "rank",
                                "discover", "classify"])
    query.add_argument("--data", default=None, metavar="JSON",
                       help="request body for rank/discover/classify, e.g. "
                            "'{\"model\": \"...\", \"triples\": [[0, 1, 2]]}'")
    query.add_argument("--timeout", type=float, default=30.0,
                       help="client-side HTTP timeout in seconds")
    query.set_defaults(func=_cmd_query)

    lint = sub.add_parser(
        "lint",
        help="domain-aware static analysis of the codebase",
        description="All arguments are forwarded to repro-lint "
        "(see `repro lint -- --help`).",
    )
    lint.add_argument("lint_args", nargs=argparse.REMAINDER,
                      help="arguments forwarded to repro-lint")
    lint.set_defaults(func=_cmd_lint)

    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    with _metrics_sink(getattr(args, "metrics_out", None)):
        return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
