"""RPR018 — no unbounded blocking waits in the ``repro.serve`` query server.

A request handler runs on a bounded worker pool inside a process that
must keep answering ``/healthz`` and draining gracefully.
``future.result()``, ``queue.get()``, ``lock.acquire()`` and
``process``/``thread.join()`` wait forever by default, and so do the
coordination primitives the server itself is built from —
``Event.wait()`` / ``Condition.wait()`` / ``Barrier.wait()`` without a
timeout.  A follower waiting forever on a leader that died holds a pool
slot forever, so graceful shutdown can never drain.  Every wait in a
handler must be a bounded slice inside a loop that re-checks its
deadline (see :class:`~repro.serve.coalesce.SingleFlight` for the
pattern).
"""

from __future__ import annotations

import ast
from typing import Iterator

from .findings import Finding
from .rules import (
    ModuleContext,
    Rule,
    in_scope,
    is_bounded,
    register_rule,
    self_attr,
    waitable_bindings,
)

__all__ = ["ServeBoundedWaitRule"]

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

_FunctionDef = (ast.FunctionDef, ast.AsyncFunctionDef)


@register_rule
class ServeBoundedWaitRule(Rule):
    rule_id = "RPR018"
    name = "serve-bounded-waits"
    description = (
        "no unbounded blocking waits in repro.serve — Event/Condition/"
        "Barrier.wait, future.result, Queue.get, lock.acquire and join "
        "must carry timeouts"
    )
    rationale = (
        "A handler that waits forever holds a bounded pool slot forever, "
        "so one dead leader starves the pool and graceful shutdown never "
        "drains.  Waits are bounded slices in a loop that re-checks the "
        "request deadline."
    )
    example = (
        "done = Event()\n"
        "done.wait()                      # RPR018: leader may have died\n"
        "done.wait(timeout=0.05)          # ok: bounded slice in a loop\n"
    )

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        if not in_scope(ctx.module, _SCOPES):
            return
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
        # A ``self.<attr>`` waitable bound in any class also types reads
        # of that attribute through another object (``call.event.wait()``).
        _, module_attrs = waitable_bindings(ctx.tree, _WAITABLE_FACTORIES)
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
                    elif isinstance(receiver, ast.Attribute):
                        kind = module_attrs.get(receiver.attr)
                        owner = f"'{ast.unparse(receiver)}'"
                if kind not in kinds:
                    continue
                yield self.finding(
                    ctx,
                    node,
                    f"unbounded {method}() on {owner} ({kind}) can pin a "
                    f"pool slot forever; wait in bounded slices "
                    f"(timeout=...) and re-check the deadline",
                )
