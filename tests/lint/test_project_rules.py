"""Whole-program pass 2 over a real multi-module package.

``fixtures/miniproj`` holds a mini ``repro.kge`` package that exercises
what the single-file fixtures cannot: relative imports, package
re-exports, method dispatch through a local instance, and an import
cycle.  The same package checks that a configured command-line run
leaves nothing behind on disk.  The generated rule reference's
freshness check lives here too.
"""

from __future__ import annotations

import ast
import shutil
from pathlib import Path

import pytest

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
EXPECTED = [("RPR010", "miniproj/repro/kge/util.py", 13, 11)]


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
    util = index.modules["repro.kge.util"]
    core = index.modules["repro.kge.core"]
    assert index.resolve(util.bindings["core"]) == (
        "module",
        "repro.kge.core",
    )
    assert index.resolve(core.bindings["draw"]) == (
        "symbol",
        "repro.kge.util:draw",
    )


def test_resolve_follows_package_reexports_and_classifies_the_rest():
    index = _miniproj_index(FIXTURES / "miniproj")
    assert index.resolve("repro.kge") == ("module", "repro.kge")
    # ``repro.kge.Engine`` is bound in ``__init__`` by ``from .core import``.
    assert index.resolve("repro.kge.Engine") == ("symbol", "repro.kge.core:Engine")
    assert index.resolve("repro.kge.core.Engine.run") == (
        "symbol",
        "repro.kge.core:Engine.run",
    )
    assert index.resolve("repro.kge.core.nothing") == (
        "missing",
        "repro.kge.core.nothing",
    )
    assert index.resolve("repro.kge.absent.thing") == (
        "missing",
        "repro.kge.absent.thing",
    )
    assert index.resolve("numpy.random") == ("external", "numpy.random")


def test_resolve_reports_unindexed_project_modules_as_unknown():
    index = _miniproj_index(FIXTURES / "miniproj")
    del index.modules["repro"], index.modules["repro.kge"]
    assert index.resolve("repro.kge.helpers.x") == ("unknown", "repro.kge.helpers.x")


def _taint(tmp_path, files: dict[str, str], package: str = "kge"):
    """RPR010 over ``files`` placed in the ``repro.<package>`` package.

    The default, ``repro.kge``, is an entry package."""
    package = tmp_path / "repro" / package
    package.mkdir(parents=True)
    (tmp_path / "repro" / "__init__.py").write_text("", encoding="utf-8")
    (package / "__init__.py").write_text("", encoding="utf-8")
    for name, source in files.items():
        (package / name).write_text(source, encoding="utf-8")
    run = LintEngine().run([tmp_path / "repro"])
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
                "__all__ = ['fit']\n"
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
                "__all__ = ['RankingEngine']\n"
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
                "__all__ = ['discover_facts']\n"
            ),
        },
    )
    assert findings == [
        ("discover.py", 4, "discover_facts -> discover_facts.<locals>.pick")
    ]


_UNSEEDED_FIT = (
    "import numpy as np\n"
    "def fit(graph):\n"
    "    return np.random.default_rng()\n"
)


@pytest.mark.parametrize(
    "package, expected",
    [
        ("kge", [("api.py", 3, "fit")]),
        ("discovery", [("api.py", 3, "fit")]),
        ("serve", []),
    ],
    ids=["kge", "discovery", "serve"],
)
def test_entry_points_come_only_from_the_entry_packages(tmp_path, package, expected):
    source = _UNSEEDED_FIT + "__all__ = ['fit']\n"
    assert _taint(tmp_path, {"api.py": source}, package=package) == expected


def test_a_function_left_out_of_all_is_not_an_entry_point(tmp_path):
    source = _UNSEEDED_FIT + "def train_model(graph):\n    return graph\n"
    findings = _taint(tmp_path, {"api.py": source + "__all__ = ['train_model']\n"})
    assert findings == []


def test_names_in_all_that_are_not_functions_are_skipped(tmp_path):
    source = _UNSEEDED_FIT + "VERSION = 1\n__all__ = ['VERSION', 'unbound', 'fit']\n"
    assert _taint(tmp_path, {"api.py": source}) == [("api.py", 3, "fit")]


def test_a_package_reexport_listed_in_all_is_an_entry_point(tmp_path):
    findings = _taint(
        tmp_path,
        {
            "__init__.py": "from .api import fit\n__all__ = ['fit']\n",
            "api.py": _UNSEEDED_FIT,
        },
    )
    assert findings == [("api.py", 3, "fit")]


def test_taint_follows_a_function_passed_by_keyword(tmp_path):
    findings = _taint(
        tmp_path,
        {
            "discover.py": (
                "import numpy as np\n"
                "def discover_facts(kg):\n"
                "    return _accumulate(kg, generate=_draw)\n"
                "def _accumulate(kg, generate):\n"
                "    return [generate(batch) for batch in kg]\n"
                "def _draw(batch):\n"
                "    return np.random.default_rng().permutation(batch)\n"
                "__all__ = ['discover_facts']\n"
            ),
        },
    )
    assert findings == [("discover.py", 7, "discover_facts -> _draw")]


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
    assert "1 finding in 1 file (4 files checked)" in capsys.readouterr().out
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
