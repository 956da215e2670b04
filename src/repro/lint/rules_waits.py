"""RPR016 — unbounded waits in the campaign layer.

The contract of :mod:`repro.experiments` is that no failure mode can
hang a campaign: a failed cell is journalled and retried or degraded,
and an overdue cell is charged a ``cell_timeout``.  All of that runs in
the campaign loop itself — an *unbounded* blocking call there suspends
the very code that records and recovers from failures, turning one lost
counterpart into a silently hung process that no deadline can reach.

Inside ``repro.experiments`` this rule flags the four blocking
primitives whose defaults wait forever when their owner never
delivers:

- ``future.result()`` / ``future.exception()`` without a ``timeout`` —
  the task behind the future may never finish (use
  ``result(timeout=0)`` after ``wait()``);
- ``queue.get()`` without ``timeout=`` (or ``block=False``) — the
  producer may be dead;
- ``lock.acquire()`` without ``timeout=`` (or ``blocking=False``) — the
  holder may be dead;
- ``process.join()`` / ``thread.join()`` without a timeout — the child
  may never exit.

Receivers are resolved by binding, not by name: a name assigned from
``Process(...)``/``Thread(...)``, a queue or lock constructor, or a
``.submit(...)`` call in the same scope is tracked, so ``str.join`` and
``dict.get`` never trip the rule.  Waits that are provably bounded or
non-blocking (``timeout=``, ``block=False``, ``blocking=False``,
``get_nowait``) pass.
"""

from __future__ import annotations

import ast
from typing import Iterator

from .findings import Finding
from .rules import (
    ModuleContext,
    Rule,
    call_tail,
    is_bounded,
    register_rule,
    waitable_bindings,
)

__all__ = ["UnboundedWaitRule"]

#: Packages whose blocking calls must carry timeouts (the campaign loop).
_SCOPES = ("repro.experiments",)

#: Constructor name -> kind of waitable the binding becomes.
_WAITABLE_FACTORIES = {
    "Process": "process",
    "Thread": "thread",
    "Queue": "queue",
    "SimpleQueue": "queue",
    "JoinableQueue": "queue",
    "LifoQueue": "queue",
    "PriorityQueue": "queue",
    "Lock": "lock",
    "RLock": "lock",
    "Condition": "lock",
    "Semaphore": "lock",
    "BoundedSemaphore": "lock",
}

#: Method -> kinds it blocks on, with the escape hatches that bound it.
_BLOCKING_METHODS = {
    "result": ("future",),
    "exception": ("future",),
    "get": ("queue",),
    "acquire": ("lock",),
    "join": ("process", "thread"),
}

_FunctionDef = (ast.FunctionDef, ast.AsyncFunctionDef)


@register_rule
class UnboundedWaitRule(Rule):
    rule_id = "RPR016"
    name = "unbounded-wait"
    description = (
        "blocking waits in repro.experiments — "
        "future.result()/exception(), Queue.get, lock.acquire and "
        "Process/Thread.join — must carry a timeout (or opt out of "
        "blocking), so a dead counterpart cannot hang the campaign"
    )
    rationale = (
        "The campaign loop is also the recovery path: an unbounded wait "
        "on a future whose task never finishes, a queue whose producer "
        "died, or a lock whose holder crashed suspends the very code that "
        "journals, retries and degrades failed cells, turning a single "
        "lost counterpart into a hung campaign no deadline can reach."
    )
    example = (
        "future = pool.submit(cell_worker, payload)\n"
        "value = future.result()      # RPR016: may wait forever\n"
        "value = future.result(timeout=0)   # ok: poll after wait()\n"
        "item = inbox.get()           # RPR016: producer may be gone\n"
        "item = inbox.get(timeout=5)  # ok\n"
    )

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        if not ctx.module.startswith(_SCOPES):
            return
        # Disjoint scopes: each top-level function (module- or class-body,
        # nested defs included — they close over the enclosing bindings)
        # and the remaining module-level statements as one scope.
        scopes: list[list[ast.AST]] = []
        module_stmts: list[ast.AST] = []
        for stmt in ctx.tree.body:
            if isinstance(stmt, _FunctionDef):
                scopes.append([stmt])
            elif isinstance(stmt, ast.ClassDef):
                scopes.extend(
                    [item] for item in stmt.body if isinstance(item, _FunctionDef)
                )
            else:
                module_stmts.append(stmt)
        scopes.append(module_stmts)
        for roots in scopes:
            bindings: dict[str, str] = {}
            for root in roots:
                bindings.update(waitable_bindings(root, _WAITABLE_FACTORIES)[0])
            for node in (n for root in roots for n in ast.walk(root)):
                if not isinstance(node, ast.Call):
                    continue
                if not isinstance(node.func, ast.Attribute):
                    continue
                method = node.func.attr
                kinds = _BLOCKING_METHODS.get(method)
                if kinds is None or is_bounded(method, node):
                    continue
                receiver = node.func.value
                if isinstance(receiver, ast.Name):
                    kind = bindings.get(receiver.id)
                    if kind not in kinds:
                        continue
                    owner = f"'{receiver.id}' ({kind})"
                elif (
                    isinstance(receiver, ast.Call)
                    and call_tail(receiver) == "submit"
                    and isinstance(receiver.func, ast.Attribute)
                    and "future" in kinds
                ):
                    owner = "the future returned by submit()"
                else:
                    continue
                yield self.finding(
                    ctx,
                    node,
                    f"unbounded {method}() on {owner} can hang the "
                    f"supervisor if its counterpart died; pass a timeout "
                    f"(or opt out of blocking)",
                )
