"""Engine plumbing: config, file collection, reporters, CLI, rule docs."""

from __future__ import annotations

import ast
import json
import shutil
from pathlib import Path

import pytest

from repro import cli as repro_cli
from repro.lint import (
    Finding,
    LintConfig,
    LintEngine,
    load_config,
    render_json,
    render_rules_doc,
    render_text,
)
from repro.lint.cli import main as lint_main

FIXTURES = Path(__file__).parent / "fixtures"
REPO_ROOT = Path(__file__).resolve().parents[2]

BAD_FIXTURES = [
    "rpr001_bad.py",
    "proj/repro/discovery/rpr002_bad.py",
    "rpr003_bad.py",
    "proj/repro/autograd/rpr004_bad.py",
    "proj/repro/kge/rpr010_bad.py",
    "proj/repro/serve/rpr018_bad.py",
]


# ----------------------------------------------------------------------
# Configuration
# ----------------------------------------------------------------------
def test_load_config_resolves_relative_paths(tmp_path):
    (tmp_path / "pyproject.toml").write_text(
        '[tool.repro-lint]\npaths = ["src", "/abs/lib"]\n'
        'exclude = ["*/gen/*"]\n',
        encoding="utf-8",
    )
    config = load_config(pyproject=tmp_path / "pyproject.toml")
    assert config.paths == (str(tmp_path / "src"), "/abs/lib")
    assert config.exclude == ("*/gen/*",)


def test_load_config_walks_up_from_start(tmp_path):
    nested = tmp_path / "a" / "b"
    nested.mkdir(parents=True)
    (tmp_path / "pyproject.toml").write_text(
        '[tool.repro-lint]\nexclude = ["*/gen/*"]\n', encoding="utf-8"
    )
    config = load_config(start=nested)
    assert config.exclude == ("*/gen/*",)
    assert config.source == str(tmp_path / "pyproject.toml")


@pytest.mark.parametrize("key", ["bogus", "enable", "disable"])
def test_load_config_rejects_unknown_keys(tmp_path, key):
    # Rules cannot be switched off project-wide: every rule always runs.
    (tmp_path / "pyproject.toml").write_text(
        f"[tool.repro-lint]\n{key} = []\n", encoding="utf-8"
    )
    with pytest.raises(ValueError, match=key):
        load_config(pyproject=tmp_path / "pyproject.toml")


def test_missing_table_yields_defaults(tmp_path):
    (tmp_path / "pyproject.toml").write_text("[project]\nname = 'x'\n")
    assert load_config(pyproject=tmp_path / "pyproject.toml") == LintConfig(
        source=str(tmp_path / "pyproject.toml")
    )


def test_merged_with_cli_adds_excludes_and_keeps_the_rest():
    config = LintConfig(exclude=("a",), paths=("src",), source="p.toml")
    merged = config.merged_with_cli(exclude=("b",))
    assert merged == LintConfig(exclude=("a", "b"), paths=("src",), source="p.toml")
    assert config.merged_with_cli() == config


def test_engine_runs_every_registered_rule():
    from repro.lint import all_rules

    engine = LintEngine(LintConfig(exclude=("*/gen/*",)))
    assert engine.rules == all_rules()


# ----------------------------------------------------------------------
# Engine mechanics
# ----------------------------------------------------------------------
def test_syntax_error_reports_rpr000():
    findings = LintEngine().lint_source("def broken(:\n", path="x.py")
    assert [finding.rule_id for finding in findings] == ["RPR000"]
    assert "syntax error" in findings[0].message


def test_run_reports_a_broken_file_and_still_lints_the_rest(tmp_path):
    (tmp_path / "a_broken.py").write_text("def broken(:\n", encoding="utf-8")
    (tmp_path / "b_bad.py").write_text(
        "import numpy as np\nx = np.random.rand(3)\n", encoding="utf-8"
    )
    run = LintEngine().run([tmp_path])
    assert [(Path(f.path).name, f.rule_id) for f in run.findings] == [
        ("a_broken.py", "RPR000"),
        ("b_bad.py", "RPR001"),
    ]


def test_collect_files_applies_exclude_patterns():
    engine = LintEngine(LintConfig(exclude=("*/proj/*",)))
    files = engine.collect_files([FIXTURES])
    names = {file.name for file in files}
    assert "rpr001_bad.py" in names
    assert not any("proj" in file.parts for file in files)


def test_collect_files_rejects_non_python_paths(tmp_path):
    (tmp_path / "notes.txt").write_text("hi", encoding="utf-8")
    with pytest.raises(FileNotFoundError):
        LintEngine().collect_files([tmp_path / "notes.txt"])


def test_collect_files_sorts_and_deduplicates_overlapping_paths():
    files = LintEngine().collect_files(
        [FIXTURES / "rpr001_bad.py", FIXTURES, FIXTURES / "proj"]
    )
    assert files == sorted(set(files))
    assert files == LintEngine().collect_files([FIXTURES])


def test_run_parses_each_file_exactly_once(monkeypatch):
    parsed: list[str] = []
    real_parse = ast.parse

    def counting_parse(source, *args, **kwargs):
        parsed.append(source)
        return real_parse(source, *args, **kwargs)

    monkeypatch.setattr(ast, "parse", counting_parse)
    run = LintEngine().run([FIXTURES])
    assert len(parsed) == len(run.files)
    assert parsed == [file.read_text(encoding="utf-8") for file in run.files]


def test_repeated_runs_return_identical_findings():
    first = LintEngine().run([FIXTURES])
    second = LintEngine().run([FIXTURES])
    assert first.findings
    assert first.files == second.files
    assert render_json(first.findings) == render_json(second.findings)
    assert first.findings == sorted(first.findings, key=Finding.sort_key)


# ----------------------------------------------------------------------
# Reporters
# ----------------------------------------------------------------------
def test_render_text_is_compiler_style():
    finding = Finding("RPR001", "x.py", 3, 1, "msg")
    out = render_text([finding], checked_files=2)
    assert "x.py:3:1: RPR001 msg" in out
    assert out.endswith("1 finding in 1 file (2 files checked)")


def test_render_json_round_trips():
    finding = Finding("RPR001", "x.py", 3, 1, "msg")
    payload = json.loads(render_json([finding], checked_files=1))
    assert payload["count"] == 1
    assert payload["checked_files"] == 1
    assert payload["findings"][0]["rule_id"] == "RPR001"
    assert payload["findings"][0]["line"] == 3


# ----------------------------------------------------------------------
# Command-line interface
# ----------------------------------------------------------------------
@pytest.mark.parametrize("fixture", BAD_FIXTURES)
def test_cli_exits_nonzero_on_bad_fixture(fixture, capsys):
    assert lint_main([str(FIXTURES / fixture), "--no-config"]) == 1
    assert "RPR" in capsys.readouterr().out


def test_cli_exits_zero_on_clean_fixture(capsys):
    assert lint_main([str(FIXTURES / "rpr001_clean.py"), "--no-config"]) == 0
    assert "0 findings" in capsys.readouterr().out


def test_cli_json_format(capsys):
    code = lint_main(
        [str(FIXTURES / "rpr001_bad.py"), "--no-config", "--format", "json"]
    )
    assert code == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["count"] == 3


def test_cli_exclude_skips_matching_files(capsys):
    code = lint_main([str(FIXTURES), "--no-config", "--exclude", "*/fixtures/*"])
    assert code == 0
    assert "0 findings (0 files checked)" in capsys.readouterr().out


def test_cli_list_rules(capsys):
    assert lint_main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    ids = [line.split()[0] for line in out.splitlines()]
    assert ids == ["RPR001", "RPR002", "RPR003", "RPR004", "RPR010", "RPR018"]


def _listing(root: Path) -> list[str]:
    return sorted(path.relative_to(root).as_posix() for path in root.rglob("*"))


def test_configured_cli_run_writes_nothing(tmp_path, monkeypatch, capsys):
    shutil.copytree(FIXTURES / "proj", tmp_path / "proj")
    (tmp_path / "pyproject.toml").write_text(
        '[tool.repro-lint]\npaths = ["proj/repro/kge"]\n', encoding="utf-8"
    )
    monkeypatch.chdir(tmp_path)
    before = _listing(tmp_path)

    assert lint_main([]) == 1
    assert "5 findings in 2 files (4 files checked)" in capsys.readouterr().out
    assert _listing(tmp_path) == before


def test_cli_explain_all_matches_the_committed_rules_doc(capsys):
    assert lint_main(["--explain-all"]) == 0
    doc = Path(__file__).parents[2] / "docs" / "lint_rules.md"
    assert capsys.readouterr().out == doc.read_text(encoding="utf-8")


def test_repro_cli_forwards_lint_arguments(capsys):
    code = repro_cli.main(
        ["lint", str(FIXTURES / "rpr001_clean.py"), "--no-config"]
    )
    assert code == 0
    code = repro_cli.main(
        ["lint", "--", str(FIXTURES / "rpr001_bad.py"), "--no-config"]
    )
    assert code == 1


# ----------------------------------------------------------------------
# Generated documentation
# ----------------------------------------------------------------------
def test_rule_reference_doc_is_fresh():
    committed = (REPO_ROOT / "docs" / "lint_rules.md").read_text(
        encoding="utf-8"
    )
    assert committed == render_rules_doc(), (
        "docs/lint_rules.md is stale; regenerate with "
        "`python -m repro.lint --explain-all > docs/lint_rules.md`"
    )


def test_every_rule_documents_rationale_and_example():
    from repro.lint import all_rules

    for rule in all_rules():
        assert rule.rationale, f"{rule.rule_id} missing rationale"
        assert rule.example, f"{rule.rule_id} missing example"
