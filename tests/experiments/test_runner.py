"""Tests for the experiment runner, its model cache, and campaign resilience."""

from __future__ import annotations

import json
import math

import numpy as np
import pytest

from repro.discovery import DiscoveryResult
from repro.experiments import (
    PAPER_DATASETS,
    PAPER_MODELS,
    PAPER_STRATEGIES,
    CampaignState,
    MatrixRow,
    clear_model_cache,
    default_model_config,
    default_train_config,
    get_trained_model,
    run_matrix,
)
from repro.kg import load_dataset
from repro.kge import create_model, load_model, save_model
from repro.obs import MetricsRegistry, use_registry
from repro.resilience import (
    FaultInjectedError,
    FaultPlan,
    RetryBudgetExceededError,
    RetryPolicy,
    RunJournal,
    inject,
)


def assert_rows_equal(a: MatrixRow, b: MatrixRow) -> None:
    """Field-by-field equality where NaN == NaN (failed/uneval'd cells)."""
    da, db = a.to_dict(), b.to_dict()
    assert da.keys() == db.keys()
    for key in da:
        if isinstance(da[key], float) and math.isnan(da[key]):
            assert math.isnan(db[key]), key
        else:
            assert da[key] == db[key], key


class TestConstants:
    def test_paper_models(self):
        assert set(PAPER_MODELS) == {"complex", "conve", "distmult", "rescal", "transe"}

    def test_paper_strategies_exclude_squares(self):
        assert "cluster_squares" not in PAPER_STRATEGIES
        assert len(PAPER_STRATEGIES) == 5

    def test_paper_datasets(self):
        assert len(PAPER_DATASETS) == 4


class TestDefaults:
    def test_every_paper_model_has_defaults(self):
        for name in PAPER_MODELS:
            assert default_model_config(name).name == name
            default_train_config(name)

    def test_unknown_model(self):
        with pytest.raises(KeyError):
            default_model_config("gnn")

    def test_unknown_model_has_no_train_config(self):
        with pytest.raises(KeyError, match="gnn"):
            default_train_config("gnn")


class TestModelCache:
    def test_in_process_cache_returns_same_object(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_MODEL_CACHE", str(tmp_path))
        clear_model_cache()
        a = get_trained_model("wn18rr-like", "distmult")
        b = get_trained_model("wn18rr-like", "distmult")
        assert a is b

    def test_disk_cache_roundtrip(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_MODEL_CACHE", str(tmp_path))
        clear_model_cache()
        a = get_trained_model("wn18rr-like", "distmult")
        clear_model_cache()  # drop in-process entry; force disk load
        b = get_trained_model("wn18rr-like", "distmult")
        assert a is not b
        np.testing.assert_array_equal(a.entity_matrix(), b.entity_matrix())

    def test_stale_disk_cache_recovers(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_MODEL_CACHE", str(tmp_path))
        clear_model_cache()
        get_trained_model("wn18rr-like", "distmult")
        # Corrupt the cache with wrong keys.
        path = tmp_path / "wn18rr-like__distmult.npz"
        np.savez(path, bogus=np.zeros(3))
        clear_model_cache()
        model = get_trained_model("wn18rr-like", "distmult")
        assert model.entity_matrix().shape[0] > 0

    def test_corrupt_disk_cache_recovers(self, tmp_path, monkeypatch):
        """A truncated .npz (not a valid zip) triggers retraining and is
        rewritten, not propagated as BadZipFile."""
        monkeypatch.setenv("REPRO_MODEL_CACHE", str(tmp_path))
        clear_model_cache()
        a = get_trained_model("wn18rr-like", "distmult")
        path = tmp_path / "wn18rr-like__distmult.npz"
        path.write_bytes(path.read_bytes()[:100])
        clear_model_cache()
        b = get_trained_model("wn18rr-like", "distmult")
        np.testing.assert_array_equal(a.entity_matrix(), b.entity_matrix())
        # The rewritten cache file is loadable again.
        np.load(path).close()

    def test_trained_model_is_in_eval_mode(self, tmp_path, monkeypatch):
        """Both the retrain and the cache-load paths return eval()-mode
        models — batched ConvE scoring depends on it (batch norm)."""
        monkeypatch.setenv("REPRO_MODEL_CACHE", str(tmp_path))
        clear_model_cache()
        fresh = get_trained_model("wn18rr-like", "distmult")
        assert not fresh.training
        clear_model_cache()
        cached = get_trained_model("wn18rr-like", "distmult")
        assert not cached.training

    def test_cached_model_of_another_shape_is_retrained(
        self, tmp_path, monkeypatch
    ):
        """A readable archive whose shape no longer matches the tuned
        config (e.g. an older ``dim``) is replaced, not returned."""
        monkeypatch.setenv("REPRO_MODEL_CACHE", str(tmp_path))
        clear_model_cache()
        graph = load_dataset("wn18rr-like")
        tuned_dim = default_model_config("distmult").dim
        stale = create_model(
            "distmult",
            num_entities=graph.num_entities,
            num_relations=graph.num_relations,
            dim=tuned_dim // 2,
            seed=0,
        )
        path = tmp_path / "wn18rr-like__distmult.npz"
        save_model(stale, path)
        model = get_trained_model("wn18rr-like", "distmult")
        assert model.dim == tuned_dim
        assert load_model(path).dim == tuned_dim  # the cache was rewritten

    def test_failed_training_retrains_under_a_spawned_seed(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("REPRO_MODEL_CACHE", str(tmp_path))
        clear_model_cache()
        first = get_trained_model("wn18rr-like", "distmult", use_disk_cache=False)
        clear_model_cache()
        with inject(FaultPlan().fail("train_epoch", match="0")) as plan:
            retried = get_trained_model(
                "wn18rr-like", "distmult", use_disk_cache=False
            )
        assert plan.fired() == 1
        # Attempt 1 trains under spawn_seed(seed, 1), not a replay of the
        # failed attempt's draws.
        assert not np.array_equal(first.entity_matrix(), retried.entity_matrix())
        assert not retried.training

    def test_exhausted_training_retries_raise_and_cache_nothing(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("REPRO_MODEL_CACHE", str(tmp_path))
        clear_model_cache()
        with inject(FaultPlan().fail("train_epoch", times=-1)) as plan:
            with pytest.raises(RetryBudgetExceededError) as info:
                get_trained_model(
                    "wn18rr-like",
                    "distmult",
                    retry_policy=RetryPolicy(max_attempts=2),
                )
        assert plan.fired() == 2
        assert isinstance(info.value.__cause__, FaultInjectedError)
        assert not (tmp_path / "wn18rr-like__distmult.npz").exists()
        model = get_trained_model("wn18rr-like", "distmult")  # trains afresh
        assert (tmp_path / "wn18rr-like__distmult.npz").is_file()
        assert not model.training


class TestRunMatrix:
    @pytest.fixture(scope="class")
    def rows(self, tmp_path_factory):
        import os

        os.environ["REPRO_MODEL_CACHE"] = str(tmp_path_factory.mktemp("cache"))
        clear_model_cache()
        try:
            return run_matrix(
                datasets=("wn18rr-like",),
                models=("distmult",),
                strategies=("uniform_random", "entity_frequency"),
                top_n=50,
                max_candidates=100,
            )
        finally:
            os.environ.pop("REPRO_MODEL_CACHE", None)
            clear_model_cache()

    def test_row_count(self, rows):
        assert len(rows) == 2

    def test_rows_carry_metrics(self, rows):
        for row in rows:
            assert row.dataset == "wn18rr-like"
            assert row.model == "distmult"
            assert row.num_facts >= 0
            assert row.runtime_seconds > 0

    def test_strategy_labels(self, rows):
        assert {row.strategy for row in rows} == {
            "uniform_random", "entity_frequency",
        }


def _result(**overrides) -> DiscoveryResult:
    fields = dict(
        facts=np.asarray([[0, 1, 2], [3, 1, 4]]),
        ranks=np.asarray([1.0, 2.0]),
        strategy="graph_degree",
        top_n=10,
        max_candidates=50,
        candidates_generated=40,
        generation_seconds=0.5,
        ranking_seconds=1.0,
        weight_seconds=0.3,
    )
    fields.update(overrides)
    return DiscoveryResult(**fields)


class TestMatrixRow:
    def test_from_result_copies_the_discovery_metrics(self):
        result = _result()
        row = MatrixRow.from_result("ds", "transe", result, test_mrr=0.4)
        assert (row.dataset, row.model, row.strategy) == (
            "ds", "transe", "graph_degree",
        )
        assert row.num_facts == 2
        assert row.mrr == result.mrr() == 0.75
        assert row.runtime_seconds == result.runtime_seconds
        assert row.weight_seconds == 0.3
        assert row.efficiency_facts_per_hour == result.efficiency_facts_per_hour()
        assert (row.test_mrr, row.status, row.error, row.trace) == (
            0.4, "ok", "", {},
        )

    def test_json_round_trip_is_bit_exact(self):
        trace = {"matrix.cell": {"count": 1, "wall_seconds": 0.1, "cpu_seconds": 0.2}}
        row = MatrixRow.from_result(
            "ds", "transe", _result(generation_seconds=1 / 3), trace=trace
        )
        for original in (row, MatrixRow.failed("ds", "m", "s", "Boom: x")):
            clone = MatrixRow.from_dict(json.loads(json.dumps(original.to_dict())))
            assert_rows_equal(clone, original)

    def test_failed_row_carries_nan_metrics_and_the_error(self):
        row = MatrixRow.failed("ds", "m", "s", "FaultInjectedError: boom")
        assert row.status == "failed"
        assert row.error == "FaultInjectedError: boom"
        assert row.num_facts == 0
        for value in (
            row.mrr, row.runtime_seconds, row.weight_seconds,
            row.efficiency_facts_per_hour, row.test_mrr,
        ):
            assert math.isnan(value)

    def test_summary_flattens_the_cell_trace(self):
        trace = {
            "matrix.cell": {"count": 1, "wall_seconds": 0.1, "cpu_seconds": 0.2},
            "matrix.cell/discover": {
                "count": 1, "wall_seconds": 0.05, "cpu_seconds": 0.05,
            },
        }
        traced = MatrixRow.from_result("ds", "m", _result(), trace=trace).summary()
        assert traced["span.matrix.cell.wall_seconds"] == 0.1
        assert traced["span.matrix.cell/discover.wall_seconds"] == 0.05
        plain = MatrixRow.from_result("ds", "m", _result()).summary()
        assert set(traced) - set(plain) == {
            "span.matrix.cell.wall_seconds",
            "span.matrix.cell/discover.wall_seconds",
        }


def test_campaign_state_reads_starts_rows_and_last_errors(tmp_path):
    journal = RunJournal(tmp_path / "run.jsonl")
    journal.append("cell_started", cell="a", attempt=1)
    journal.append("cell_failed", cell="a", attempt=1, error="ValueError: one")
    journal.append("cell_started", cell="a", attempt=2)
    journal.append("cell_timeout", cell="a", attempt=2, error="Deadline: two")
    journal.append("cell_started", cell="b", attempt=1)
    journal.append("cell_succeeded", cell="b", row={"num_facts": 3})
    journal.append("cell_succeeded", cell="c", row="not a row")
    state = CampaignState.from_journal(journal)
    assert state.attempts == {"a": 2, "b": 1}
    assert state.completed == {"b": {"num_facts": 3}}
    assert state.last_error == {"a": "Deadline: two"}


_CAMPAIGN = dict(
    datasets=("wn18rr-like",),
    models=("distmult",),
    strategies=("uniform_random", "entity_frequency"),
    top_n=50,
    max_candidates=100,
)


class TestResilientCampaigns:
    def test_killed_campaign_resumes_bit_identically(self, tmp_path, monkeypatch):
        """Acceptance: a campaign killed mid-cell and restarted produces the
        same final report as an uninterrupted run."""
        monkeypatch.setenv("REPRO_MODEL_CACHE", str(tmp_path / "cache"))
        clear_model_cache()
        reference = run_matrix(journal_path=tmp_path / "ref.jsonl", **_CAMPAIGN)

        # Kill the process mid-second-cell: KeyboardInterrupt is not an
        # Exception, so — like SIGKILL — no cell_failed record is written.
        journal_path = tmp_path / "run.jsonl"
        plan = FaultPlan().fail(
            "matrix_cell", match="*entity_frequency*", exc=KeyboardInterrupt
        )
        with inject(plan):
            with pytest.raises(KeyboardInterrupt):
                run_matrix(journal_path=journal_path, **_CAMPAIGN)
        assert plan.fired() == 1

        state = CampaignState.from_journal(RunJournal(journal_path))
        completed_key = "wn18rr-like/distmult/uniform_random"
        assert set(state.completed) == {completed_key}
        assert state.attempts["wn18rr-like/distmult/entity_frequency"] == 1

        resumed = run_matrix(journal_path=journal_path, **_CAMPAIGN)
        assert [row.status for row in resumed] == ["ok", "ok"]
        # The completed cell is replayed bit-identically from the journal,
        # not recomputed.
        assert_rows_equal(
            resumed[0], MatrixRow.from_dict(state.completed[completed_key])
        )
        # Every deterministic metric matches the uninterrupted reference
        # run (wall-clock timing fields legitimately differ).
        for ref_row, res_row in zip(reference, resumed):
            assert ref_row.strategy == res_row.strategy
            assert ref_row.num_facts == res_row.num_facts
            assert ref_row.mrr == res_row.mrr
        # A further restart replays the whole report bit-identically.
        replayed = run_matrix(journal_path=journal_path, **_CAMPAIGN)
        for resumed_row, replayed_row in zip(resumed, replayed):
            assert_rows_equal(resumed_row, replayed_row)

    def test_corrupt_checkpoint_is_quarantined_and_retrained(
        self, tmp_path, monkeypatch
    ):
        """Acceptance: a corrupted cache checkpoint is detected, moved to a
        *.corrupt sibling, and the model is retrained — never loaded."""
        monkeypatch.setenv("REPRO_MODEL_CACHE", str(tmp_path))
        clear_model_cache()
        original = get_trained_model("wn18rr-like", "distmult")
        path = tmp_path / "wn18rr-like__distmult.npz"
        data = bytearray(path.read_bytes())
        middle = len(data) // 2
        for offset in range(middle, middle + 32):
            data[offset] ^= 0xFF
        path.write_bytes(bytes(data))

        clear_model_cache()
        retrained = get_trained_model("wn18rr-like", "distmult")
        quarantined = tmp_path / "wn18rr-like__distmult.npz.corrupt"
        assert quarantined.is_file()
        # Attempt 0 of the retrain reproduces the original run bit for bit.
        np.testing.assert_array_equal(
            original.entity_matrix(), retrained.entity_matrix()
        )
        # The rewritten cache is valid again and clear() removes quarantine.
        clear_model_cache()
        reloaded = get_trained_model("wn18rr-like", "distmult")
        np.testing.assert_array_equal(
            original.entity_matrix(), reloaded.entity_matrix()
        )
        clear_model_cache(disk=True)
        assert not quarantined.exists()

    def test_degrade_mode_emits_partial_failure_rows(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_MODEL_CACHE", str(tmp_path / "cache"))
        clear_model_cache()
        journal_path = tmp_path / "run.jsonl"
        with inject(
            FaultPlan().fail("matrix_cell", match="*entity_frequency*", times=-1)
        ):
            rows = run_matrix(
                journal_path=journal_path,
                max_cell_attempts=2,
                on_error="degrade",
                **_CAMPAIGN,
            )
        assert [row.status for row in rows] == ["ok", "failed"]
        failed = rows[1]
        assert failed.strategy == "entity_frequency"
        assert failed.error.startswith("FaultInjectedError")
        assert math.isnan(failed.mrr) and failed.num_facts == 0

        state = CampaignState.from_journal(RunJournal(journal_path))
        key = "wn18rr-like/distmult/entity_frequency"
        assert state.attempts[key] == 2
        assert state.last_error[key].startswith("FaultInjectedError")

        # The budget is spent: a resume (fault gone) must NOT re-run the
        # cell but report it failed with the recorded fingerprint.
        resumed = run_matrix(
            journal_path=journal_path,
            max_cell_attempts=2,
            on_error="degrade",
            **_CAMPAIGN,
        )
        assert [row.status for row in resumed] == ["ok", "failed"]
        assert resumed[1].error.startswith("FaultInjectedError")
        assert_rows_equal(resumed[0], rows[0])

    def test_transient_cell_failure_recovers_in_process(
        self, tmp_path, monkeypatch
    ):
        """A cell that fails once and then succeeds is re-run inside the
        same degrading campaign — no restart needed."""
        monkeypatch.setenv("REPRO_MODEL_CACHE", str(tmp_path / "cache"))
        clear_model_cache()
        journal_path = tmp_path / "run.jsonl"
        with inject(
            FaultPlan().fail("matrix_cell", match="*uniform_random*", times=1)
        ) as plan:
            rows = run_matrix(
                journal_path=journal_path,
                max_cell_attempts=3,
                on_error="degrade",
                **_CAMPAIGN,
            )
        assert plan.fired() == 1
        assert [row.status for row in rows] == ["ok", "ok"]
        state = CampaignState.from_journal(RunJournal(journal_path))
        assert state.attempts["wn18rr-like/distmult/uniform_random"] == 2

    def test_raise_mode_propagates_and_preserves_progress(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("REPRO_MODEL_CACHE", str(tmp_path / "cache"))
        clear_model_cache()
        journal_path = tmp_path / "run.jsonl"
        with inject(FaultPlan().fail("matrix_cell", match="*entity_frequency*")):
            with pytest.raises(FaultInjectedError):
                run_matrix(journal_path=journal_path, **_CAMPAIGN)
        view = RunJournal(journal_path).read()
        assert len(view.by_event("cell_succeeded")) == 1
        assert len(view.by_event("cell_failed")) == 1

    def test_invalid_on_error_rejected(self):
        with pytest.raises(ValueError, match="on_error"):
            run_matrix(on_error="ignore", **_CAMPAIGN)


def _deterministic_fields(rows):
    """The deterministic comparison tuple (repr makes NaN comparable)."""
    return [
        (r.dataset, r.model, r.strategy, r.status, r.num_facts, repr(r.mrr),
         repr(r.test_mrr))
        for r in rows
    ]


@pytest.fixture(scope="class")
def class_model_cache(tmp_path_factory):
    """One on-disk model cache per test class: train once, reuse."""
    import os

    previous = os.environ.get("REPRO_MODEL_CACHE")
    os.environ["REPRO_MODEL_CACHE"] = str(tmp_path_factory.mktemp("cache"))
    clear_model_cache()
    yield
    if previous is None:
        os.environ.pop("REPRO_MODEL_CACHE", None)
    else:
        os.environ["REPRO_MODEL_CACHE"] = previous
    clear_model_cache()


@pytest.mark.usefixtures("class_model_cache")
class TestChaosRecovery:
    """The serial schedule ``repro chaos`` runs: faults at the runner's own
    sites, each followed by a recovery that is bit-identical to a
    fault-free baseline on every deterministic field."""

    CAMPAIGN = dict(_CAMPAIGN, seed=0)

    @pytest.fixture(scope="class")
    def baseline_rows(self, class_model_cache):
        return run_matrix(**self.CAMPAIGN)

    def test_torn_success_record_heals_on_resume(self, baseline_rows, tmp_path):
        journal_path = tmp_path / "run.jsonl"
        with inject(FaultPlan().torn(match="cell_succeeded")):
            with pytest.raises(FaultInjectedError):
                run_matrix(
                    **self.CAMPAIGN, journal_path=journal_path,
                    max_cell_attempts=3,
                )
        journal = RunJournal(journal_path)
        assert journal.read().corrupt_lines == 1  # the torn tail, untouched
        recovered = run_matrix(
            **self.CAMPAIGN, journal_path=journal_path, max_cell_attempts=3
        )
        assert _deterministic_fields(recovered) == _deterministic_fields(
            baseline_rows
        )
        view = journal.read()
        assert view.corrupt_lines == 0  # resume quarantined the torn tail
        assert journal.quarantine_path.is_file()

    def test_parent_side_cell_fault_reruns_within_one_pass(
        self, baseline_rows, tmp_path
    ):
        journal_path = tmp_path / "run.jsonl"
        with inject(FaultPlan().fail("matrix_cell", match="*entity_frequency*")):
            rows = run_matrix(
                **self.CAMPAIGN,
                journal_path=journal_path,
                max_cell_attempts=3,
                on_error="degrade",
            )
        assert _deterministic_fields(rows) == _deterministic_fields(baseline_rows)
        failed = RunJournal(journal_path).read().by_event("cell_failed")
        assert len(failed) == 1
        assert failed[0]["cell"] == "wn18rr-like/distmult/entity_frequency"

    def test_v1_journal_resumes_under_the_v2_writer(self, baseline_rows, tmp_path):
        # A campaign journalled by the pre-envelope format: bare records,
        # no header, no checksums.  Resume must replay its completed cell
        # bit-identically and append v2 envelopes after it.
        journal_path = tmp_path / "run.jsonl"
        key = "wn18rr-like/distmult/uniform_random"
        done = next(r for r in baseline_rows if r.strategy == "uniform_random")
        v1_records = [
            {"event": "cell_started", "cell": key, "attempt": 1},
            {"event": "cell_succeeded", "cell": key, "row": done.to_dict()},
        ]
        journal_path.write_text(
            "".join(json.dumps(record) + "\n" for record in v1_records),
            encoding="utf-8",
        )
        rows = run_matrix(
            **self.CAMPAIGN, journal_path=journal_path, max_cell_attempts=3
        )
        assert _deterministic_fields(rows) == _deterministic_fields(baseline_rows)
        view = RunJournal(journal_path).read()
        assert view.corrupt_lines == 0
        assert view.version == 1  # headerless file keeps its v1 identity
        # The replayed cell was not re-run; only the other cell started.
        started = view.by_event("cell_started")
        assert [r["cell"] for r in started].count(key) == 1
        # New appends are enveloped even inside a v1 file.
        tail = journal_path.read_text(encoding="utf-8").strip().splitlines()[-1]
        assert set(json.loads(tail)) == {"crc", "record"}

    def test_cell_deadline_overrun_is_charged_and_degrades(self, tmp_path):
        journal_path = tmp_path / "run.jsonl"
        rows = run_matrix(
            **self.CAMPAIGN,
            journal_path=journal_path,
            max_cell_attempts=2,
            on_error="degrade",
            cell_deadline=1e-9,
        )
        assert [row.status for row in rows] == ["failed", "failed"]
        assert all(
            row.error.startswith("DeadlineExceededError") for row in rows
        )
        journal = RunJournal(journal_path)
        view = journal.read()
        assert view.by_event("cell_failed") == []
        timeouts = view.by_event("cell_timeout")
        # Every attempt, the in-process re-run included, gets its own
        # budget and is charged when it overruns.
        assert len(timeouts) == 4
        state = CampaignState.from_journal(journal)
        assert set(state.attempts.values()) == {2}
        assert not state.completed


@pytest.mark.usefixtures("class_model_cache")
class TestCampaignJournal:
    """How a journalled campaign records, orders and budgets its cells
    across restarts."""

    CAMPAIGN = dict(_CAMPAIGN, seed=0)
    FAILING = "wn18rr-like/distmult/entity_frequency"

    def test_every_cell_is_started_once_and_records_its_row(self, tmp_path):
        journal_path = tmp_path / "run.jsonl"
        rows = run_matrix(**self.CAMPAIGN, journal_path=journal_path)
        view = RunJournal(journal_path).read()
        keys = [f"{r.dataset}/{r.model}/{r.strategy}" for r in rows]
        started = view.by_event("cell_started")
        assert [record["cell"] for record in started] == keys
        assert all(record["attempt"] == 1 for record in started)
        succeeded = view.by_event("cell_succeeded")
        assert [record["cell"] for record in succeeded] == keys
        for record, row in zip(succeeded, rows):
            assert_rows_equal(MatrixRow.from_dict(record["row"]), row)
        assert view.by_event("cell_failed") == []

    def test_rows_follow_the_requested_order_on_replay(self, tmp_path):
        journal_path = tmp_path / "run.jsonl"
        forward = run_matrix(**self.CAMPAIGN, journal_path=journal_path)
        reversed_campaign = dict(
            self.CAMPAIGN, strategies=tuple(reversed(_CAMPAIGN["strategies"]))
        )
        replayed = run_matrix(**reversed_campaign, journal_path=journal_path)
        assert [row.strategy for row in replayed] == list(
            reversed_campaign["strategies"]
        )
        for row, original in zip(replayed, reversed(forward)):
            assert_rows_equal(row, original)
        # Every cell was replayed from the journal, none re-run.
        view = RunJournal(journal_path).read()
        assert len(view.by_event("cell_started")) == len(forward)

    def test_attempt_budget_spans_restarts(self, tmp_path):
        journal_path = tmp_path / "run.jsonl"
        plan = FaultPlan().fail(
            "matrix_cell", match="*entity_frequency*", times=-1
        )
        with inject(plan):
            first = run_matrix(
                **self.CAMPAIGN,
                journal_path=journal_path,
                max_cell_attempts=1,
                on_error="degrade",
            )
            # A larger budget on restart buys exactly the difference.
            second = run_matrix(
                **self.CAMPAIGN,
                journal_path=journal_path,
                max_cell_attempts=2,
                on_error="degrade",
            )
        assert [row.status for row in first] == ["ok", "failed"]
        assert [row.status for row in second] == ["ok", "failed"]
        assert plan.fired() == 2
        started = RunJournal(journal_path).read().by_event("cell_started")
        assert [r["attempt"] for r in started if r["cell"] == self.FAILING] == [
            1, 2,
        ]

    def test_failed_cell_recovers_when_resumed_with_more_budget(self, tmp_path):
        journal_path = tmp_path / "run.jsonl"
        with inject(FaultPlan().fail("matrix_cell", match="*entity_frequency*")):
            first = run_matrix(
                **self.CAMPAIGN,
                journal_path=journal_path,
                max_cell_attempts=1,
                on_error="degrade",
            )
        assert first[1].status == "failed"
        resumed = run_matrix(
            **self.CAMPAIGN,
            journal_path=journal_path,
            max_cell_attempts=2,
            on_error="degrade",
        )
        assert [row.status for row in resumed] == ["ok", "ok"]
        assert_rows_equal(resumed[0], first[0])
        timeline = [
            record["event"]
            for record in RunJournal(journal_path).read().records
            if record.get("cell") == self.FAILING
        ]
        assert timeline == [
            "cell_started", "cell_failed", "cell_started", "cell_succeeded",
        ]

    def test_single_attempt_budget_degrades_without_a_rerun(self, tmp_path):
        journal_path = tmp_path / "run.jsonl"
        with inject(
            FaultPlan().fail("matrix_cell", match="*entity_frequency*", times=-1)
        ) as plan:
            rows = run_matrix(
                **self.CAMPAIGN,
                journal_path=journal_path,
                max_cell_attempts=1,
                on_error="degrade",
            )
        assert plan.fired() == 1
        assert [row.status for row in rows] == ["ok", "failed"]
        assert rows[1].error.startswith("FaultInjectedError")

    def test_untyped_rerun_failures_are_journalled(self, tmp_path):
        """In-process re-attempts record plain exceptions too, not only
        the typed resilience errors."""
        journal_path = tmp_path / "run.jsonl"
        with inject(
            FaultPlan().fail(
                "matrix_cell", match="*entity_frequency*", times=-1,
                exc=RuntimeError,
            )
        ):
            rows = run_matrix(
                **self.CAMPAIGN,
                journal_path=journal_path,
                max_cell_attempts=3,
                on_error="degrade",
            )
        assert rows[1].status == "failed"
        assert rows[1].error.startswith("RuntimeError")
        failed = RunJournal(journal_path).read().by_event("cell_failed")
        assert [r["attempt"] for r in failed] == [1, 2, 3]
        assert all(r["error"].startswith("RuntimeError") for r in failed)

    def test_raise_mode_journals_the_failure_fingerprint(self, tmp_path):
        journal_path = tmp_path / "run.jsonl"
        with inject(FaultPlan().fail("matrix_cell", match="*entity_frequency*")):
            with pytest.raises(FaultInjectedError, match="matrix_cell"):
                run_matrix(**self.CAMPAIGN, journal_path=journal_path)
        failed = RunJournal(journal_path).read().by_event("cell_failed")
        assert [(r["cell"], r["attempt"]) for r in failed] == [(self.FAILING, 1)]
        assert failed[0]["error"].startswith("FaultInjectedError")

    def test_interrupted_cell_without_a_failure_record_reports_interrupted(
        self, tmp_path
    ):
        journal_path = tmp_path / "run.jsonl"
        with inject(
            FaultPlan().fail(
                "matrix_cell", match="*entity_frequency*", exc=KeyboardInterrupt
            )
        ):
            with pytest.raises(KeyboardInterrupt):
                run_matrix(**self.CAMPAIGN, journal_path=journal_path)
        rows = run_matrix(
            **self.CAMPAIGN,
            journal_path=journal_path,
            max_cell_attempts=1,
            on_error="degrade",
        )
        assert [row.status for row in rows] == ["ok", "failed"]
        assert rows[1].error == "interrupted"


@pytest.mark.usefixtures("class_model_cache")
class TestRunMatrixOptions:
    CAMPAIGN = dict(_CAMPAIGN, seed=0)

    def test_shared_statistics_do_not_change_results(self):
        per_cell = run_matrix(**self.CAMPAIGN)
        shared = run_matrix(**self.CAMPAIGN, share_statistics=True)
        assert _deterministic_fields(shared) == _deterministic_fields(per_cell)

    def test_evaluate_models_fills_test_mrr_per_model(self):
        rows = run_matrix(**self.CAMPAIGN, evaluate_models=True)
        assert [row.status for row in rows] == ["ok", "ok"]
        assert 0.0 < rows[0].test_mrr <= 1.0
        # One evaluation per model, shared by all of its strategies.
        assert rows[0].test_mrr == rows[1].test_mrr

    def test_rows_carry_cell_traces_when_observed(self):
        registry = MetricsRegistry()
        with use_registry(registry):
            rows = run_matrix(**self.CAMPAIGN)
        for row in rows:
            # Each row holds its own cell's spans only: one cell, one
            # discovery run.
            assert row.trace["matrix/matrix.cell"]["count"] == 1
            assert row.trace["matrix/matrix.cell/discover"]["count"] == 1
            summary = row.summary()
            assert (
                summary["span.matrix/matrix.cell.wall_seconds"]
                == row.trace["matrix/matrix.cell"]["wall_seconds"]
            )
        assert registry.snapshot()["counters"]["matrix.cells_count"] == 2
        # Unobserved runs stay trace-free.
        assert all(row.trace == {} for row in run_matrix(**self.CAMPAIGN))
