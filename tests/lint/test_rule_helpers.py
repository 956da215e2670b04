"""Unit checks for the AST helpers the rule modules share.

``repro.lint.rules`` holds one copy of the scope test, the callee-name
tail, the bounded-wait test and the waitable-binding scan; the wait
checks of RPR018 and the scoped rules all call these, so a change here
moves every one of them at once.
"""

from __future__ import annotations

import ast

import pytest

from repro.lint.rules import (
    call_tail,
    in_scope,
    is_bounded,
    self_attr,
    waitable_bindings,
)


def _call(source: str) -> ast.Call:
    node = ast.parse(source, mode="eval").body
    assert isinstance(node, ast.Call)
    return node


def test_in_scope_matches_the_scope_and_its_submodules_only():
    scopes = ("repro.kge", "repro.serve")
    assert in_scope("repro.kge", scopes)
    assert in_scope("repro.kge.training", scopes)
    assert in_scope("repro.serve.http.handlers", scopes)
    assert not in_scope("repro.kgex", scopes)
    assert not in_scope("repro", scopes)
    assert not in_scope("repro.discovery", scopes)
    assert not in_scope("repro.kge", ())


def test_call_tail_names_the_last_component_of_the_callee():
    assert call_tail(_call("fit(graph)")) == "fit"
    assert call_tail(_call("pool.executor.submit(job)")) == "submit"
    assert call_tail(_call("factory()()")) is None
    assert call_tail(_call("(lambda: 0)()")) is None
    assert call_tail(_call("handlers[0](request)")) is None


@pytest.mark.parametrize(
    ("source", "bounded"),
    [
        ("event.wait()", False),
        ("event.wait(1.0)", True),
        ("future.result(timeout=5)", True),
        ("thread.join()", False),
        ("queue.get()", False),
        ("queue.get(False)", True),
        ("queue.get(block=False)", True),
        ("queue.get(True)", False),
        ("lock.acquire()", False),
        ("lock.acquire(blocking=False)", True),
        ("lock.acquire(blocking=True)", False),
        ("queue.put(item)", False),
    ],
)
def test_is_bounded(source, bounded):
    call = _call(source)
    assert is_bounded(call_tail(call), call) is bounded


def test_self_attr_reads_only_direct_attributes_of_self():
    def expr(source: str) -> ast.expr:
        return ast.parse(source, mode="eval").body

    assert self_attr(expr("self.queue")) == "queue"
    assert self_attr(expr("other.queue")) is None
    assert self_attr(expr("self.pool.queue")) is None
    assert self_attr(expr("queue")) is None


def test_waitable_bindings_finds_every_binding_form():
    tree = ast.parse(
        "import threading\n"
        "from queue import Queue\n"
        "class Server:\n"
        "    def __init__(self, pool):\n"
        "        self.jobs = Queue()\n"
        "        self.done: threading.Event = threading.Event()\n"
        "        self.name = str(pool)\n"
        "    def start(self, pool):\n"
        "        worker = threading.Thread(target=self.run)\n"
        "        pending: object = pool.submit(self.run)\n"
        "        with threading.Lock() as guard:\n"
        "            pass\n"
        "        a = b = Queue()\n"
        "        plain = len(self.name)\n"
        "        orphan = submit(self.run)\n"
    )
    factories = {"Queue": "queue", "Thread": "thread", "Lock": "lock", "Event": "event"}
    names, attrs = waitable_bindings(tree, factories)
    assert names == {
        "worker": "thread",
        "pending": "future",
        "guard": "lock",
        "a": "queue",
        "b": "queue",
    }
    assert attrs == {"jobs": "queue", "done": "event"}


def test_waitable_bindings_honours_the_callers_factory_table():
    tree = ast.parse("q = Queue()\nt = Thread()\n")
    names, attrs = waitable_bindings(tree, {"Thread": "thread"})
    assert names == {"t": "thread"}
    assert attrs == {}


def test_rule_registry_lookup():
    from repro.lint.rules import all_rules, get_rule

    assert get_rule("RPR001").rule_id == "RPR001"
    with pytest.raises(KeyError, match="unknown rule 'RPR999'"):
        get_rule("RPR999")
    ids = [rule.rule_id for rule in all_rules()]
    assert ids == sorted(ids)


def test_registering_a_taken_rule_id_is_an_error():
    from repro.lint.rules import all_rules, get_rule, register_rule

    before = all_rules()
    duplicate = type(get_rule("RPR001"))
    with pytest.raises(ValueError, match="RPR001 already registered"):
        register_rule(duplicate)
    assert all_rules() == before
