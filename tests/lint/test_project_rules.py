"""Whole-program pass 2 over a real multi-module package.

``fixtures/miniproj`` exercises what the single-file fixtures cannot:
relative imports, package re-exports, method dispatch through a local
instance, and an import cycle.  The same package checks that a
configured command-line run leaves nothing behind on disk.  The
generated rule reference's freshness check lives here too.
"""

from __future__ import annotations

import ast
import shutil
from pathlib import Path

from repro.lint import (
    LintEngine,
    ProjectIndex,
    build_module_info,
    derive_module_name,
    render_rules_doc,
)
from repro.lint.cli import main as lint_main

FIXTURES = Path(__file__).parent / "fixtures"
REPO_ROOT = Path(__file__).resolve().parents[2]

#: Every finding the miniproj scan must produce, in sorted order.
EXPECTED = [
    ("RPR013", "miniproj/__init__.py", 8, 1),
    ("RPR010", "miniproj/util.py", 15, 11),
]


def _scan(monkeypatch):
    monkeypatch.chdir(FIXTURES)
    return LintEngine().run(["miniproj"])


def _keys(findings):
    return [(f.rule_id, f.path, f.line, f.col) for f in findings]


def _miniproj_index(root: Path) -> ProjectIndex:
    modules = {}
    for path in sorted(root.rglob("*.py")):
        name = derive_module_name(path)
        tree = ast.parse(path.read_text(encoding="utf-8"))
        modules[name] = build_module_info(name, str(path), tree)
    return ProjectIndex(modules)


# ----------------------------------------------------------------------
# Cross-module resolution
# ----------------------------------------------------------------------
def test_whole_program_findings(monkeypatch):
    run = _scan(monkeypatch)
    assert sorted(_keys(run.findings)) == sorted(EXPECTED)
    taint = next(f for f in run.findings if f.rule_id == "RPR010")
    # The witness walks a relative import, a local-instance method
    # dispatch, self-dispatch, and a cross-module call.
    assert (
        "discover_facts -> compute -> Engine.run -> Engine.sample -> draw"
        in taint.message
    )


def test_import_cycle_is_indexed_not_fatal():
    index = _miniproj_index(FIXTURES / "miniproj")
    # util imports core back while core imports draw from util: both
    # directions of the cycle resolve.
    util = index.modules["miniproj.util"]
    core = index.modules["miniproj.core"]
    assert index.resolve(util.bindings["core"].target) == (
        "module",
        "miniproj.core",
    )
    assert index.resolve(core.bindings["draw"].target) == (
        "symbol",
        "miniproj.util:draw",
    )


# ----------------------------------------------------------------------
# No on-disk state
# ----------------------------------------------------------------------
def _listing(root: Path) -> list[str]:
    return sorted(path.relative_to(root).as_posix() for path in root.rglob("*"))


def test_configured_cli_run_writes_nothing(tmp_path, monkeypatch, capsys):
    shutil.copytree(FIXTURES / "miniproj", tmp_path / "miniproj")
    (tmp_path / "pyproject.toml").write_text(
        '[tool.repro-lint]\npaths = ["miniproj"]\n', encoding="utf-8"
    )
    monkeypatch.chdir(tmp_path)
    before = _listing(tmp_path)

    assert lint_main([]) == 1
    assert "2 findings in 2 files (3 files checked)" in capsys.readouterr().out
    assert _listing(tmp_path) == before


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
