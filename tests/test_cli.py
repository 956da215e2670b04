"""CLI tests — every subcommand exercised in-process."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cli import build_parser, main
from repro.kg import save_dataset_dir
from repro.kge import create_model, save_model


@pytest.fixture()
def checkpoint(tmp_path, tiny_graph):
    """A (untrained but valid) checkpoint matching the tiny graph's sizes."""
    model = create_model(
        "distmult",
        num_entities=tiny_graph.num_entities,
        num_relations=tiny_graph.num_relations,
        dim=8,
        seed=0,
    )
    path = tmp_path / "model.npz"
    save_model(model, path)
    return path


@pytest.fixture()
def dataset_dir(tmp_path, tiny_graph):
    """The tiny graph saved as a TSV dataset directory."""
    directory = tmp_path / "tinyds"
    save_dataset_dir(tiny_graph, directory)
    return directory


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    def test_train_defaults(self):
        args = build_parser().parse_args(["train", "wn18rr-like", "distmult"])
        assert args.dim == 32
        assert args.job == "auto"

    def test_discover_strategy_choices_enforced(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["discover", "m.npz", "ds", "--strategy", "bogus"]
            )


class TestDatasetsCommand:
    def test_lists_all_replicas(self, capsys):
        assert main(["datasets"]) == 0
        out = capsys.readouterr().out
        for name in ("fb15k237-like", "wn18rr-like", "yago310-like", "codexl-like"):
            assert name in out


class TestAnalyzeCommand:
    def test_report_printed(self, dataset_dir, capsys):
        assert main(["analyze", str(dataset_dir)]) == 0
        out = capsys.readouterr().out
        assert "Dataset report" in out
        assert "Relation cardinalities" in out

    def test_relations_flag(self, dataset_dir, capsys):
        assert main(["analyze", str(dataset_dir), "--relations"]) == 0
        assert "Per-relation profiles" in capsys.readouterr().out

    def test_leak_section_present(self, dataset_dir, capsys):
        assert main(["analyze", str(dataset_dir), "--leak-threshold", "0.9"]) == 0
        out = capsys.readouterr().out
        assert "leakage" in out

    def test_inverse_pairs_are_tabulated(self, tmp_path, capsys):
        from repro.kg import KnowledgeGraph

        forward = np.array([[s, 0, s + 1] for s in range(0, 20, 2)])
        inverse = forward[:, [2, 1, 0]].copy()
        inverse[:, 1] = 1
        graph = KnowledgeGraph.from_arrays(
            "leaky", 21, 2, np.concatenate([forward, inverse]),
            forward[:2], forward[2:4],
            relation_labels=["parent_of", "child_of"],
        )
        save_dataset_dir(graph, tmp_path / "leaky")
        code = main(
            ["analyze", str(tmp_path / "leaky"), "--leak-threshold", "0.9"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Inverse-relation leakage (threshold 0.9)" in out
        pairs = {
            tuple(line.split()[:2])
            for line in out.splitlines()
            if line.startswith(("parent_of", "child_of"))
        }
        assert {("parent_of", "child_of"), ("child_of", "parent_of")} <= pairs


class TestProtocolCommand:
    def test_runs_and_reports(self, dataset_dir, capsys):
        code = main(
            [
                "protocol", str(dataset_dir), "distmult",
                "--epochs", "5", "--dim", "8",
                "--hide-fraction", "0.1",
                "--top-n", "40", "--max-candidates", "64",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "recall" in out and "known_true_precision" in out


class TestTrainCommand:
    def test_trains_and_checkpoints(self, tmp_path, dataset_dir, capsys):
        out_path = tmp_path / "trained.npz"
        code = main(
            [
                "train", str(dataset_dir), "distmult",
                "--epochs", "3", "--dim", "8", "--output", str(out_path),
            ]
        )
        assert code == 0
        assert out_path.is_file()
        assert "validation MRR" in capsys.readouterr().out

    def test_auto_job_picks_negative_sampling_for_transe(self):
        args = build_parser().parse_args(["train", "x", "transe"])
        assert args.job == "auto"  # resolution happens inside _cmd_train

    def test_unknown_dataset_exits(self, tmp_path):
        with pytest.raises(SystemExit, match="unknown dataset"):
            main(["train", "no-such-dataset", "distmult",
                  "--output", str(tmp_path / "x.npz")])


class TestEvaluateCommand:
    def test_prints_metrics(self, checkpoint, dataset_dir, capsys):
        assert main(["evaluate", str(checkpoint), str(dataset_dir)]) == 0
        out = capsys.readouterr().out
        assert "MRR" in out and "Hits@10" in out

    def test_raw_flag(self, checkpoint, dataset_dir, capsys):
        assert main(["evaluate", str(checkpoint), str(dataset_dir), "--raw"]) == 0


class TestDiscoverCommand:
    def test_prints_facts(self, checkpoint, dataset_dir, capsys):
        code = main(
            [
                "discover", str(checkpoint), str(dataset_dir),
                "--top-n", "40", "--max-candidates", "64", "--limit", "5",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "facts discovered" in out

    def test_relation_subset(self, checkpoint, dataset_dir, tmp_path, capsys):
        out_file = tmp_path / "facts.tsv"
        code = main(
            [
                "discover", str(checkpoint), str(dataset_dir),
                "--top-n", "40", "--max-candidates", "64",
                "--relations", "r_0",
                "--output", str(out_file),
            ]
        )
        assert code == 0
        lines = out_file.read_text().strip().splitlines()
        assert lines
        assert all(line.split("\t")[1] == "r_0" for line in lines)

    def test_writes_tsv(self, checkpoint, dataset_dir, tmp_path, capsys):
        out_file = tmp_path / "facts.tsv"
        code = main(
            [
                "discover", str(checkpoint), str(dataset_dir),
                "--top-n", "40", "--max-candidates", "64",
                "--output", str(out_file),
            ]
        )
        assert code == 0
        lines = out_file.read_text().strip().splitlines()
        assert lines
        assert all(len(line.split("\t")) == 4 for line in lines)


class TestCompareCommand:
    def test_compares_selected_strategies(self, checkpoint, dataset_dir, capsys):
        code = main(
            [
                "compare", str(checkpoint), str(dataset_dir),
                "--strategies", "uniform_random", "entity_frequency",
                "--top-n", "40", "--max-candidates", "64",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "entity_frequency" in out and "uniform_random" in out


class TestReproduceCommand:
    def test_quick_reproduce_writes_tables(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_MODEL_CACHE", str(tmp_path / "cache"))
        from repro.experiments import clear_model_cache

        clear_model_cache()
        code = main(
            [
                "reproduce", "--quick", "--datasets", "wn18rr-like",
                "--output", str(tmp_path / "out"),
            ]
        )
        assert code == 0
        for name in ("table1", "fig2_runtime", "fig4_mrr", "fig6_efficiency",
                     "summary"):
            assert (tmp_path / "out" / f"{name}.txt").is_file()
        clear_model_cache()


class TestStoreCommand:
    def _generate(self, out, *extra):
        return main(
            ["store", "generate", "wn18rr-like", "-o", str(out), "--scale", "0.2",
             *extra]
        )

    def test_generate_then_info(self, tmp_path, capsys):
        out = tmp_path / "store"
        assert self._generate(out) == 0
        generated = capsys.readouterr().out
        assert "wrote wn18rr-like-x0.2" in generated
        assert f"store:{out}" in generated
        assert main(["store", "info", str(out)]) == 0
        info = capsys.readouterr().out
        assert f"KG store at {out}" in info
        assert "wn18rr-like-x0.2" in info
        assert "checksums: OK" in info

    def test_info_without_verification_skips_the_checksum_line(
        self, tmp_path, capsys
    ):
        out = tmp_path / "store"
        self._generate(out)
        capsys.readouterr()
        assert main(["store", "info", str(out), "--no-verify"]) == 0
        info = capsys.readouterr().out
        assert "wn18rr-like-x0.2" in info
        assert "checksums" not in info

    def test_existing_store_needs_force(self, tmp_path, capsys):
        out = tmp_path / "store"
        self._generate(out)
        with pytest.raises(SystemExit, match="--force"):
            self._generate(out)
        assert main(
            ["store", "generate", "wn18rr-like", "-o", str(out), "--scale", "0.1",
             "--force"]
        ) == 0
        assert "wrote wn18rr-like-x0.1" in capsys.readouterr().out

    def test_unknown_profile_exits(self, tmp_path):
        with pytest.raises(SystemExit, match="unknown profile 'nope'"):
            main(["store", "generate", "nope", "-o", str(tmp_path / "s")])
        assert not (tmp_path / "s").exists()

    def test_info_on_a_plain_directory_exits(self, tmp_path):
        with pytest.raises(SystemExit, match="not a complete KG store"):
            main(["store", "info", str(tmp_path)])

    def test_generated_store_is_a_dataset_argument(self, tmp_path, capsys):
        out = tmp_path / "store"
        self._generate(out)
        capsys.readouterr()
        assert main(["analyze", f"store:{out}"]) == 0
        assert "Dataset report: wn18rr-like-x0.2" in capsys.readouterr().out


class TestGridCommand:
    def test_grid_table(self, checkpoint, dataset_dir, capsys):
        code = main(
            [
                "grid", str(checkpoint), str(dataset_dir),
                "--top-n-values", "10", "30",
                "--max-candidates-values", "25", "64",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "max_candidates" in out
        # 2 × 2 grid rows plus header material.
        assert len([l for l in out.splitlines() if l and l[0].isdigit()]) == 4
