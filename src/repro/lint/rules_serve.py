"""RPR018 — handler hygiene in the ``repro.serve`` query server.

A request handler runs on a bounded worker pool inside a process that
must keep answering ``/healthz`` and draining gracefully.  Three habits
break that contract, and each is cheap to detect statically:

**Unbounded blocking waits.**  ``future.result()``, ``queue.get()``,
``lock.acquire()`` and ``process``/``thread.join()`` wait forever by
default, and so do the coordination primitives the server itself is
built from — ``Event.wait()`` / ``Condition.wait()`` /
``Barrier.wait()`` without a timeout.  A follower waiting forever on a
leader that died holds a pool slot forever, so graceful shutdown can
never drain.  Every wait in a handler must be a bounded slice inside a
loop that re-checks its deadline (see
:class:`~repro.serve.coalesce.SingleFlight` for the pattern).

**Mutable module-global state.**  Handlers run concurrently; state they
mutate must live in an object that owns a lock (RPR011 then enforces the
locking).  A ``global`` statement inside a function, or an in-place
mutation of a module-level binding (``CACHE[key] = ...``,
``_SEEN.append(...)``), is shared state with no owner and no lock.
Read-only module constants are fine — only mutation trips the rule.

**Hand-rolled wire payloads.**  Every byte on the wire comes from the
versioned schema types — :meth:`~repro.api.types.WireType.to_bytes`,
:meth:`~repro.api.types.ApiError.envelope` through
:func:`~repro.api.types.encode_payload`.  ``json.dumps`` applied to a
dict/list literal is an ad-hoc response shape that silently escapes the
``schema_version`` contract and drifts from the documented API.
"""

from __future__ import annotations

import ast
from typing import Iterator

from .findings import Finding
from .rules import (
    ModuleContext,
    Rule,
    is_bounded,
    register_rule,
    self_attr,
    waitable_bindings,
)

__all__ = ["ServeHandlerHygieneRule"]

#: The package whose request/handler code this rule watches.
_SCOPES = ("repro.serve",)

#: Constructor name -> kind of waitable the binding becomes.
_WAITABLE_FACTORIES = {
    "Event": "event",
    "Condition": "condition",
    "Barrier": "barrier",
    "Process": "process",
    "Thread": "thread",
    "Queue": "queue",
    "SimpleQueue": "queue",
    "LifoQueue": "queue",
    "PriorityQueue": "queue",
    "Lock": "lock",
    "RLock": "lock",
    "Semaphore": "lock",
    "BoundedSemaphore": "lock",
}

#: Method -> kinds it blocks on.
_BLOCKING_METHODS = {
    "wait": ("event", "condition", "barrier"),
    "result": ("future",),
    "exception": ("future",),
    "get": ("queue",),
    "acquire": ("lock",),
    "join": ("process", "thread"),
}

#: In-place mutators on the stdlib containers handlers reach for.
_MUTATING_METHODS = frozenset(
    {
        "append", "extend", "insert", "remove", "pop", "popitem", "clear",
        "add", "discard", "update", "setdefault", "appendleft", "extendleft",
    }
)

_FunctionDef = (ast.FunctionDef, ast.AsyncFunctionDef)


def _module_level_names(tree: ast.Module) -> frozenset[str]:
    """Names bound to values (not defs/imports) at module scope."""
    names: set[str] = set()
    for stmt in tree.body:
        if isinstance(stmt, ast.Assign):
            for target in stmt.targets:
                if isinstance(target, ast.Name):
                    names.add(target.id)
        elif isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
            if stmt.value is not None:
                names.add(stmt.target.id)
    return frozenset(names)


def _root_name(node: ast.expr) -> str | None:
    """Leftmost ``Name`` of an attribute/subscript chain."""
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        node = node.value
    if isinstance(node, ast.Name):
        return node.id
    return None


@register_rule
class ServeHandlerHygieneRule(Rule):
    rule_id = "RPR018"
    name = "serve-handler-hygiene"
    description = (
        "query-server handler hygiene in repro.serve — no unbounded "
        "blocking waits (Event/Condition/Barrier.wait, future.result, "
        "Queue.get, lock.acquire and join must carry timeouts), no "
        "mutation of module-global state from handler code, and no "
        "hand-rolled json.dumps payloads outside the versioned schema types"
    )
    rationale = (
        "A handler that waits forever holds a bounded pool slot forever, "
        "so one dead leader starves the pool and graceful shutdown never "
        "drains; module-global state mutated from concurrent handlers has "
        "no owning lock for RPR011 to check; and a json.dumps'd literal "
        "is a wire shape that silently escapes the schema_version "
        "contract the public API documents."
    )
    example = (
        "done = Event()\n"
        "done.wait()                      # RPR018: leader may have died\n"
        "done.wait(timeout=0.05)          # ok: bounded slice in a loop\n"
        "_SEEN = set()\n"
        "def handle(key):\n"
        "    _SEEN.add(key)               # RPR018: unlocked shared state\n"
        "    return json.dumps({'ok': 1}) # RPR018: ad-hoc wire payload\n"
    )

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        if not ctx.module.startswith(_SCOPES):
            return
        yield from self._check_waits(ctx)
        yield from self._check_global_mutation(ctx)
        yield from self._check_adhoc_payloads(ctx)

    # -- unbounded waits ------------------------------------------------

    def _check_waits(self, ctx: ModuleContext) -> Iterator[Finding]:
        # Each top-level function is one scope; class bodies form one
        # scope so ``self.<attr>`` waitables bound in ``__init__`` are
        # visible from every method.
        scopes: list[ast.AST] = []
        module_stmts = ast.Module(body=[], type_ignores=[])
        for stmt in ctx.tree.body:
            if isinstance(stmt, (*_FunctionDef, ast.ClassDef)):
                scopes.append(stmt)
            else:
                module_stmts.body.append(stmt)
        scopes.append(module_stmts)
        for root in scopes:
            names, attrs = waitable_bindings(root, _WAITABLE_FACTORIES)
            for node in ast.walk(root):
                if not isinstance(node, ast.Call):
                    continue
                if not isinstance(node.func, ast.Attribute):
                    continue
                method = node.func.attr
                kinds = _BLOCKING_METHODS.get(method)
                if kinds is None or is_bounded(method, node):
                    continue
                receiver = node.func.value
                kind = None
                owner = None
                if isinstance(receiver, ast.Name):
                    kind = names.get(receiver.id)
                    owner = f"'{receiver.id}'"
                else:
                    attr = self_attr(receiver)
                    if attr is not None:
                        kind = attrs.get(attr)
                        owner = f"'self.{attr}'"
                if kind not in kinds:
                    continue
                yield self.finding(
                    ctx,
                    node,
                    f"unbounded {method}() on {owner} ({kind}) can pin a "
                    f"pool slot forever; wait in bounded slices "
                    f"(timeout=...) and re-check the deadline",
                )

    # -- module-global mutation -----------------------------------------

    def _check_global_mutation(self, ctx: ModuleContext) -> Iterator[Finding]:
        module_names = _module_level_names(ctx.tree)
        for func in (
            n for n in ast.walk(ctx.tree) if isinstance(n, _FunctionDef)
        ):
            for node in ast.walk(func):
                if isinstance(node, ast.Global):
                    yield self.finding(
                        ctx,
                        node,
                        f"handler rebinds module global(s) "
                        f"{', '.join(repr(n) for n in node.names)}; move the "
                        f"state into a lock-owning object",
                    )
                elif isinstance(node, (ast.Assign, ast.AugAssign, ast.Delete)):
                    targets = (
                        node.targets
                        if isinstance(node, (ast.Assign, ast.Delete))
                        else [node.target]
                    )
                    for target in targets:
                        # Plain local rebinding is fine; only stores
                        # *into* a module-level container mutate state.
                        if not isinstance(target, (ast.Subscript, ast.Attribute)):
                            continue
                        name = _root_name(target)
                        if name in module_names:
                            yield self.finding(
                                ctx,
                                node,
                                f"in-place mutation of module global "
                                f"{name!r} from handler code; shared state "
                                f"needs a lock-owning object",
                            )
                elif isinstance(node, ast.Call):
                    if not isinstance(node.func, ast.Attribute):
                        continue
                    if node.func.attr not in _MUTATING_METHODS:
                        continue
                    receiver = node.func.value
                    if (
                        isinstance(receiver, ast.Name)
                        and receiver.id in module_names
                    ):
                        yield self.finding(
                            ctx,
                            node,
                            f"{node.func.attr}() mutates module global "
                            f"{receiver.id!r} from handler code; shared "
                            f"state needs a lock-owning object",
                        )

    # -- ad-hoc wire payloads -------------------------------------------

    def _check_adhoc_payloads(self, ctx: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            is_dumps = (
                isinstance(func, ast.Attribute)
                and func.attr == "dumps"
                and isinstance(func.value, ast.Name)
                and func.value.id == "json"
            ) or (isinstance(func, ast.Name) and func.id == "dumps")
            if not is_dumps or not node.args:
                continue
            if isinstance(node.args[0], (ast.Dict, ast.List, ast.Set, ast.Tuple)):
                yield self.finding(
                    ctx,
                    node,
                    "hand-rolled json.dumps payload; wire responses come "
                    "from the schema types (WireType.to_bytes / "
                    "ApiError.envelope via encode_payload)",
                )
