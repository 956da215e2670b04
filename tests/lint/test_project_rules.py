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
EXPECTED = [("RPR010", "miniproj/util.py", 15, 11)]


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
    assert _keys(run.findings) == EXPECTED
    taint = run.findings[0]
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
    assert index.resolve(util.bindings["core"]) == (
        "module",
        "miniproj.core",
    )
    assert index.resolve(core.bindings["draw"]) == (
        "symbol",
        "miniproj.util:draw",
    )


def test_resolve_follows_package_reexports_and_classifies_the_rest():
    index = _miniproj_index(FIXTURES / "miniproj")
    assert index.resolve("miniproj") == ("module", "miniproj")
    # ``miniproj.Engine`` is bound in ``__init__`` by ``from .core import``.
    assert index.resolve("miniproj.Engine") == ("symbol", "miniproj.core:Engine")
    assert index.resolve("miniproj.core.Engine.run") == (
        "symbol",
        "miniproj.core:Engine.run",
    )
    assert index.resolve("miniproj.core.nothing") == (
        "missing",
        "miniproj.core.nothing",
    )
    assert index.resolve("miniproj.absent.thing") == ("missing", "miniproj.absent.thing")
    assert index.resolve("numpy.random") == ("external", "numpy.random")


def test_resolve_reports_unindexed_project_modules_as_unknown():
    index = _miniproj_index(FIXTURES / "miniproj")
    del index.modules["miniproj"]
    assert index.resolve("miniproj.helpers.x") == ("unknown", "miniproj.helpers.x")


def _taint(tmp_path, files: dict[str, str]):
    package = tmp_path / "pkg"
    package.mkdir()
    (package / "__init__.py").write_text("", encoding="utf-8")
    for name, source in files.items():
        (package / name).write_text(source, encoding="utf-8")
    run = LintEngine().run([package])
    return [
        (Path(f.path).name, f.line, f.message.split("(reachable via ")[1][:-1])
        for f in run.findings
    ]


def test_taint_dispatches_through_an_inherited_method_across_modules(tmp_path):
    findings = _taint(
        tmp_path,
        {
            "base.py": (
                "import numpy as np\n"
                "class Base:\n"
                "    def draw(self):\n"
                "        return np.random.default_rng()\n"
            ),
            "engine.py": (
                "from .base import Base\n"
                "class Child(Base):\n"
                "    def run(self):\n"
                "        return self.draw()\n"
                "def fit(graph):\n"
                "    child = Child()\n"
                "    return child.run()\n"
            ),
        },
    )
    assert findings == [("base.py", 4, "fit -> Child.run -> Base.draw")]


def test_every_ranking_engine_method_is_an_entry_point(tmp_path):
    findings = _taint(
        tmp_path,
        {
            "ranking.py": (
                "import numpy as np\n"
                "class RankingEngine:\n"
                "    def ties(self, rows):\n"
                "        return _order(rows)\n"
                "def _order(rows):\n"
                "    return list({row for row in rows})\n"
                "def unreachable():\n"
                "    return np.random.default_rng()\n"
            ),
        },
    )
    assert findings == [("ranking.py", 6, "RankingEngine.ties -> _order")]


def test_taint_reaches_nested_closures_of_an_entry_point(tmp_path):
    findings = _taint(
        tmp_path,
        {
            "discover.py": (
                "import numpy as np\n"
                "def discover_facts(kg):\n"
                "    def pick():\n"
                "        return np.random.default_rng()\n"
                "    return pick()\n"
            ),
        },
    )
    assert findings == [
        ("discover.py", 4, "discover_facts -> discover_facts.<locals>.pick")
    ]


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
    assert "1 finding in 1 file (3 files checked)" in capsys.readouterr().out
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
