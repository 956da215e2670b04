"""Tier-1 gate: the repository's own sources must lint clean.

This is the test that makes the analyzer's invariants binding — RNG
determinism, tape hygiene and bounded waits in the query server hold on
every change or the suite fails with the exact ``path:line:col`` of the
violation.
"""

from __future__ import annotations

from pathlib import Path

from repro.lint import LintEngine, load_config

REPO_ROOT = Path(__file__).resolve().parents[2]


def test_project_config_declares_scan_roots():
    config = load_config(pyproject=REPO_ROOT / "pyproject.toml")
    assert config.paths == (str(REPO_ROOT / "src" / "repro"),)


def test_source_tree_is_lint_clean():
    config = load_config(pyproject=REPO_ROOT / "pyproject.toml")
    engine = LintEngine(config)
    run = engine.run(list(config.paths))
    assert run.findings == [], "unsuppressed lint findings:\n" + "\n".join(
        finding.render() for finding in run.findings
    )

    # Both passes actually ran over the whole tree.
    assert len(run.files) > 50
