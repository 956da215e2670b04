"""Per-rule fixture pairs plus targeted unit checks.

Every registered rule has one *bad* fixture (flagged with exactly the
expected findings) and one *clean* fixture (no findings under the full
rule set, which also proves the fixtures do not trip each other's rules).
The scoped rules (RPR002/RPR004/RPR018) live under a fake package tree
in ``fixtures/proj`` so module-name derivation resolves them into the
``repro.*`` namespaces the rules watch.  RPR010 has no scope; its
further bad fixtures sit in that tree too, each pinned to its exact
findings.
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
    (
        "RPR010",
        "proj/repro/kge/rpr010_bad.py",
        "proj/repro/kge/rpr010_clean.py",
        2,
    ),
    (
        "RPR018",
        "proj/repro/serve/rpr018_bad.py",
        "proj/repro/serve/rpr018_clean.py",
        2,
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


#: Every RPR010 bad fixture under ``fixtures/proj/repro`` with its
#: exact findings: (line, col, qualified name of the enclosing scope).
RPR010_FINDINGS = {
    "kge/rpr010_bad.py": [(14, 12, "_make_rng"), (19, 17, "_collect")],
    "discovery/rpr010_anytime_bad.py": [(21, 12, "_pull")],
    "discovery/rpr010_callback_bad.py": [
        (14, 16, "discover_facts.<locals>.generate")
    ],
    "discovery/rpr010_lambda_bad.py": [(17, 16, "_Arm.ucb_score")],
    "kge/rpr010_module_bad.py": [
        (9, 7, "<module>"),
        (13, 14, "Sampler"),
        (16, 14, "<module>"),
    ],
    "serve/rpr010_unreached_bad.py": [
        (12, 16, "Backoff.jitter"),
        (16, 17, "spread"),
    ],
}


@pytest.mark.parametrize("fixture", list(RPR010_FINDINGS))
def test_rpr010_flags_every_scope_of_every_module(fixture):
    findings = ENGINE.lint_file(FIXTURES / "proj/repro" / fixture)
    expected = RPR010_FINDINGS[fixture]
    assert [(f.rule_id, f.line, f.col) for f in findings] == [
        ("RPR010", line, col) for line, col, _ in expected
    ]
    for finding, (_, _, qual) in zip(findings, expected):
        assert finding.message.endswith(f" in '{qual}'")


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


def test_every_rule_has_exactly_one_fixture_pair():
    from repro.lint import all_rules

    assert [case[0] for case in CASES] == [rule.rule_id for rule in all_rules()]


#: One unbounded and one bounded spelling of every blocking wait RPR018
#: knows: (binding line, unbounded call, bounded call).
WAIT_FORMS = [
    ("w = threading.Event()", "w.wait()", "w.wait(0.05)"),
    ("w = threading.Condition()", "w.wait()", "w.wait(timeout=0.05)"),
    ("w = threading.Barrier(2)", "w.wait()", "w.wait(0.05)"),
    ("w = pool.submit(job)", "w.result()", "w.result(timeout=1.0)"),
    ("w = pool.submit(job)", "w.exception()", "w.exception(1.0)"),
    ("w = queue.Queue()", "w.get()", "w.get(timeout=0.05)"),
    ("w = queue.SimpleQueue()", "w.get(True)", "w.get(False)"),
    ("w = threading.Lock()", "w.acquire()", "w.acquire(blocking=False)"),
    ("w = threading.Semaphore(2)", "w.acquire()", "w.acquire(timeout=0.05)"),
    ("w = threading.Thread(target=job)", "w.join()", "w.join(0.05)"),
    ("w = multiprocessing.Process(target=job)", "w.join()", "w.join(timeout=1)"),
]


def _wait_source(binding: str, call: str) -> str:
    return f"def handle(pool, job):\n    {binding}\n    {call}\n"


@pytest.mark.parametrize(
    "binding, unbounded, bounded",
    WAIT_FORMS,
    ids=[f"{form[0].split('(')[0].split('.')[-1]}-{form[1]}" for form in WAIT_FORMS],
)
def test_rpr018_flags_each_unbounded_wait_and_passes_its_bounded_form(
    binding, unbounded, bounded
):
    module = "repro.serve.handlers"
    findings = ENGINE.lint_source(_wait_source(binding, unbounded), module=module)
    assert [(f.rule_id, f.line) for f in findings] == [("RPR018", 3)]
    assert "'w'" in findings[0].message
    assert ENGINE.lint_source(_wait_source(binding, bounded), module=module) == []


def test_rpr018_sees_waitables_bound_on_self_in_another_method():
    source = (
        "import threading\n"
        "class Flight:\n"
        "    def __init__(self):\n"
        "        self._done = threading.Event()\n"
        "    def follow(self):\n"
        "        self._done.wait()\n"
    )
    findings = ENGINE.lint_source(source, module="repro.serve.coalesce")
    assert [(f.rule_id, f.line) for f in findings] == [("RPR018", 6)]
    assert "'self._done' (event)" in findings[0].message


def test_rpr018_types_a_waitable_attribute_read_through_another_object():
    # The single-flight follower shape: the Event lives on a slot object.
    source = (
        "import threading\n"
        "class _Call:\n"
        "    def __init__(self):\n"
        "        self.event = threading.Event()\n"
        "def follow(call, other):\n"
        "    call.event.wait(timeout=0.05)\n"
        "    other.done.wait()\n"
        "    call.event.wait()\n"
    )
    findings = ENGINE.lint_source(source, module="repro.serve.coalesce")
    assert [(f.rule_id, f.line) for f in findings] == [("RPR018", 8)]
    assert "'call.event' (event)" in findings[0].message


def test_rpr018_only_fires_in_repro_serve():
    source = _wait_source("w = threading.Event()", "w.wait()")
    assert ENGINE.lint_source(source, module="repro.kge.training") == []
    assert ENGINE.lint_source(source, module="repro.serverless") == []
    assert ENGINE.lint_source(source, module="repro.serve") != []


def test_rpr018_ignores_waits_on_receivers_it_cannot_type():
    # A parameter or an unrelated object's wait() is not a known waitable.
    source = "def handle(event, client):\n    event.wait()\n    client.get()\n"
    assert ENGINE.lint_source(source, module="repro.serve.server") == []
