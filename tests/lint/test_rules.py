"""Per-rule fixture pairs plus targeted unit checks.

Every registered rule has one *bad* fixture (flagged with exactly the
expected findings) and one *clean* fixture (no findings under the full
rule set, which also proves the fixtures do not trip each other's rules).
The scoped rules (RPR002/RPR004/RPR007/RPR008/RPR009/RPR012) live under
a fake package tree in ``fixtures/proj`` so module-name derivation
resolves them into the ``repro.*`` namespaces the rules watch.  The
whole-program rules (RPR010–RPR014) are exercised here on single
self-contained modules — ``lint_file`` runs pass 2 over a singleton
index — and again over a real multi-module package in
``test_project_rules.py``.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.lint import LintEngine, derive_module_name

FIXTURES = Path(__file__).parent / "fixtures"

ENGINE = LintEngine()

#: (rule id, bad fixture, clean fixture, findings expected in the bad one).
CASES = [
    ("RPR001", "rpr001_bad.py", "rpr001_clean.py", 3),
    (
        "RPR002",
        "proj/repro/discovery/rpr002_bad.py",
        "proj/repro/discovery/rpr002_clean.py",
        2,
    ),
    ("RPR003", "rpr003_bad.py", "rpr003_clean.py", 1),
    (
        "RPR004",
        "proj/repro/autograd/rpr004_bad.py",
        "proj/repro/autograd/rpr004_clean.py",
        2,
    ),
    ("RPR005", "rpr005_bad.py", "rpr005_clean.py", 2),
    ("RPR006", "rpr006_bad.py", "rpr006_clean.py", 4),
    (
        "RPR007",
        "proj/repro/kge/rpr007_bad.py",
        "proj/repro/kge/rpr007_clean.py",
        4,
    ),
    (
        "RPR008",
        "proj/repro/kge/rpr008_bad.py",
        "proj/repro/kge/rpr008_clean.py",
        3,
    ),
    (
        "RPR009",
        "proj/repro/discovery/rpr009_bad.py",
        "proj/repro/discovery/rpr009_clean.py",
        6,
    ),
    ("RPR010", "rpr010_bad.py", "rpr010_clean.py", 2),
    ("RPR011", "rpr011_bad.py", "rpr011_clean.py", 1),
    (
        "RPR012",
        "proj/repro/discovery/rpr012_bad.py",
        "proj/repro/discovery/rpr012_clean.py",
        3,
    ),
    ("RPR013", "rpr013_bad.py", "rpr013_clean.py", 2),
    ("RPR014", "rpr014_bad.py", "rpr014_clean.py", 1),
    (
        "RPR017",
        "proj/repro/kg/rpr017_bad.py",
        "proj/repro/kg/rpr017_clean.py",
        4,
    ),
    (
        "RPR018",
        "proj/repro/serve/rpr018_bad.py",
        "proj/repro/serve/rpr018_clean.py",
        6,
    ),
]


@pytest.mark.parametrize(
    "rule_id, bad, clean, count", CASES, ids=[case[0] for case in CASES]
)
def test_bad_fixture_is_flagged(rule_id, bad, clean, count):
    findings = ENGINE.lint_file(FIXTURES / bad)
    assert [finding.rule_id for finding in findings] == [rule_id] * count


@pytest.mark.parametrize(
    "rule_id, bad, clean, count", CASES, ids=[case[0] for case in CASES]
)
def test_clean_fixture_passes_all_rules(rule_id, bad, clean, count):
    assert ENGINE.lint_file(FIXTURES / clean) == []


def test_derive_module_name_walks_packages():
    scoped = FIXTURES / "proj" / "repro" / "discovery" / "rpr002_bad.py"
    assert derive_module_name(scoped) == "repro.discovery.rpr002_bad"
    assert derive_module_name(FIXTURES / "rpr001_bad.py") == "rpr001_bad"


def test_rpr001_flags_global_rng_imports():
    findings = ENGINE.lint_source("from numpy.random import rand\n")
    assert [finding.rule_id for finding in findings] == ["RPR001"]
    findings = ENGINE.lint_source("from random import shuffle\n")
    assert [finding.rule_id for finding in findings] == ["RPR001"]


def test_rpr001_allows_generator_surface():
    source = (
        "import numpy as np\n"
        "rng = np.random.default_rng(0)\n"
        "bits = np.random.PCG64(0)\n"
    )
    assert ENGINE.lint_source(source) == []


@pytest.mark.parametrize(
    "binding,call",
    [
        ("import numpy.random as npr", "npr.rand(3)"),
        ("import numpy.random", "numpy.random.rand(3)"),
        ("from numpy import random as nr", "nr.rand(3)"),
        ("from numpy import random", "random.rand(3)"),
    ],
)
def test_rpr001_follows_every_spelling_of_numpy_random(binding, call):
    findings = ENGINE.lint_source(f"{binding}\nx = {call}\n")
    assert [(f.rule_id, f.line) for f in findings] == [("RPR001", 2)]


def test_rpr002_only_fires_in_scoped_modules():
    source = "def f(model, c):\n    return model.score_spo(c)\n"
    assert ENGINE.lint_source(source, module="repro.kge.base") == []
    findings = ENGINE.lint_source(source, module="repro.discovery.candidates")
    assert [finding.rule_id for finding in findings] == ["RPR002"]


def test_rpr002_nested_function_escapes_enclosing_guard():
    source = (
        "def outer(model, c):\n"
        "    with no_grad():\n"
        "        def later():\n"
        "            return model.score_spo(c)\n"
        "        return later\n"
    )
    findings = ENGINE.lint_source(source, module="repro.discovery.lazy")
    assert [finding.rule_id for finding in findings] == ["RPR002"]


def test_rpr003_exempts_the_parameter_update_modules():
    source = "def step(param, grad):\n    param.data[:] = param.data - grad\n"
    assert ENGINE.lint_source(source, module="repro.autograd.optim") == []
    findings = ENGINE.lint_source(source, module="repro.kge.training")
    assert [finding.rule_id for finding in findings] == ["RPR003"]


def test_rpr003_exempts_scipy_sparse_value_buffers():
    sparse = (
        "import scipy.sparse as sp\n"
        "def collapse(x):\n"
        "    adj = sp.csr_matrix(x)\n"
        "    adj.data[:] = 1\n"
        "    return adj\n"
    )
    assert ENGINE.lint_source(sparse, module="repro.kg.stats") == []
    # A name ever rebound to something else loses the exemption.
    ambiguous = (
        "import scipy.sparse as sp\n"
        "def collapse(x, tensor):\n"
        "    adj = sp.csr_matrix(x)\n"
        "    adj = tensor\n"
        "    adj.data[:] = 1\n"
        "    return adj\n"
    )
    findings = ENGINE.lint_source(ambiguous, module="repro.kg.stats")
    assert [finding.rule_id for finding in findings] == ["RPR003"]


def test_rpr004_flags_direct_grad_writes():
    source = (
        "def scale(a, factor):\n"
        "    def backward(grad):\n"
        "        a.grad = grad * factor\n"
        "    return a._make(a.data * factor, (a,), backward)\n"
    )
    findings = ENGINE.lint_source(source, module="repro.autograd.extra")
    assert [finding.rule_id for finding in findings] == ["RPR004"]


def test_rpr005_rejects_non_literal_all():
    findings = ENGINE.lint_source("__all__ = [name for name in dir()]\n")
    assert [finding.rule_id for finding in findings] == ["RPR005"]
    assert "literal" in findings[0].message


def test_rpr005_skips_modules_without_all():
    assert ENGINE.lint_source("def public():\n    return 1\n") == []


def test_rpr007_atomic_writes_only_fire_in_scoped_modules():
    source = "import numpy as np\ndef save(path, a):\n    np.savez(path, a=a)\n"
    findings = ENGINE.lint_source(source, module="repro.kge.checkpoint")
    assert [finding.rule_id for finding in findings] == ["RPR007"]
    findings = ENGINE.lint_source(source, module="repro.experiments.runner")
    assert [finding.rule_id for finding in findings] == ["RPR007"]
    # The sanctioned writer itself is out of scope.
    assert ENGINE.lint_source(source, module="repro.resilience.atomic") == []
    assert ENGINE.lint_source(source, module="repro.discovery.candidates") == []


def test_rpr009_raw_clocks_only_fire_in_scoped_modules():
    source = "import time\ndef f():\n    return time.perf_counter()\n"
    findings = ENGINE.lint_source(source, module="repro.kge.training")
    assert [finding.rule_id for finding in findings] == ["RPR009"]
    findings = ENGINE.lint_source(source, module="repro.experiments.runner")
    assert [finding.rule_id for finding in findings] == ["RPR009"]
    # The obs package owns the clocks; unscoped modules are free too.
    assert ENGINE.lint_source(source, module="repro.obs.spans") == []
    assert ENGINE.lint_source(source, module="repro.resilience.retry") == []


def test_rpr009_summary_without_reportable_is_flagged():
    source = (
        "class R:\n"
        "    def summary(self):\n"
        "        return {}\n"
    )
    findings = ENGINE.lint_source(source, module="repro.resilience.guards")
    assert [finding.rule_id for finding in findings] == ["RPR009"]
    mixed_in = (
        "from repro.obs import ReportableMixin\n"
        "class R(ReportableMixin):\n"
        "    def summary(self):\n"
        "        return {}\n"
    )
    assert ENGINE.lint_source(mixed_in, module="repro.resilience.guards") == []


def test_rpr007_swallowed_broad_except_fires_everywhere():
    source = "def f(fn):\n    try:\n        fn()\n    except Exception:\n        pass\n"
    findings = ENGINE.lint_source(source)
    assert [finding.rule_id for finding in findings] == ["RPR007"]
    # A handler that actually does something is fine.
    handled = (
        "def f(fn):\n"
        "    try:\n"
        "        fn()\n"
        "    except Exception as error:\n"
        "        raise RuntimeError('wrapped') from error\n"
    )
    assert ENGINE.lint_source(handled) == []
