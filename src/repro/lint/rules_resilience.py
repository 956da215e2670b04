"""RPR007 — resilience hygiene.

Two checks share this id:

* **swallowed exceptions** — ``except Exception:`` / ``except
  BaseException:`` handlers whose body is only ``pass`` (or ``...``)
  silently discard failures, converting a real fault into a missing
  result with no trace.  Applies everywhere.
* **non-atomic binary writes** — inside ``repro.kge`` and
  ``repro.experiments``, direct ``open(..., "wb")`` or numpy
  ``save``/``savez``/``savez_compressed`` calls bypass the
  write-temp→fsync→rename discipline, so a crash mid-write leaves a
  torn checkpoint or cache entry behind.  Durable artifacts must go
  through :mod:`repro.resilience.atomic` (``atomic_write`` /
  ``atomic_savez``), which is itself out of scope as the sanctioned
  writer.
"""

from __future__ import annotations

import ast
from typing import Iterator

from .findings import Finding
from .rules import ModuleContext, Rule, in_scope, numpy_aliases, register_rule

__all__ = ["ResilienceRule"]

_ATOMIC_SCOPES = ("repro.kge", "repro.experiments")
_BROAD_EXCEPTIONS = frozenset({"Exception", "BaseException"})
_NUMPY_WRITERS = frozenset({"save", "savez", "savez_compressed"})


def _is_noop_body(body: list[ast.stmt]) -> bool:
    for stmt in body:
        if isinstance(stmt, ast.Pass):
            continue
        if (
            isinstance(stmt, ast.Expr)
            and isinstance(stmt.value, ast.Constant)
            and stmt.value.value is Ellipsis
        ):
            continue
        return False
    return True


def _broad_handler_name(node: ast.ExceptHandler) -> str | None:
    if isinstance(node.type, ast.Name) and node.type.id in _BROAD_EXCEPTIONS:
        return node.type.id
    return None


def _binary_write_mode(node: ast.Call) -> str | None:
    """The mode string of an ``open()`` call when it writes binary."""
    mode: ast.expr | None = None
    if len(node.args) >= 2:
        mode = node.args[1]
    for keyword in node.keywords:
        if keyword.arg == "mode":
            mode = keyword.value
    if (
        isinstance(mode, ast.Constant)
        and isinstance(mode.value, str)
        and "w" in mode.value
        and "b" in mode.value
    ):
        return mode.value
    return None


@register_rule
class ResilienceRule(Rule):
    rule_id = "RPR007"
    name = "resilience"
    description = (
        "no silently-swallowed broad exceptions; durable binary writes in "
        "kge/experiments go through repro.resilience.atomic"
    )
    rationale = (
        "A swallowed exception converts a real fault into a missing "
        "result with no trace, and a torn checkpoint write poisons the "
        "model cache that every later run loads.  Both failure modes "
        "surface far from their cause."
    )
    example = (
        "try:\n"
        "    run_cell()\n"
        "except Exception:\n"
        "    pass                      # RPR007: fault vanishes\n"
        "\n"
        "np.savez(path, emb=emb)       # RPR007: non-atomic in repro.kge\n"
    )

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        in_atomic_scope = in_scope(ctx.module, _ATOMIC_SCOPES)
        np_names = numpy_aliases(ctx.tree)
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.ExceptHandler):
                caught = _broad_handler_name(node)
                if caught is not None and _is_noop_body(node.body):
                    yield self.finding(
                        ctx,
                        node,
                        f"`except {caught}: pass` silently swallows every "
                        "failure; handle, log, or re-raise it",
                    )
            elif in_atomic_scope and isinstance(node, ast.Call):
                if (
                    isinstance(node.func, ast.Name)
                    and node.func.id == "open"
                ):
                    mode = _binary_write_mode(node)
                    if mode is not None:
                        yield self.finding(
                            ctx,
                            node,
                            f"open(..., {mode!r}) writes a durable artifact "
                            "non-atomically; a crash mid-write leaves a torn "
                            "file — use repro.resilience.atomic.atomic_write",
                        )
                elif (
                    isinstance(node.func, ast.Attribute)
                    and node.func.attr in _NUMPY_WRITERS
                    and isinstance(node.func.value, ast.Name)
                    and node.func.value.id in np_names
                ):
                    yield self.finding(
                        ctx,
                        node,
                        f"{node.func.value.id}.{node.func.attr}(...) writes "
                        "a checkpoint non-atomically; use "
                        "repro.resilience.atomic.atomic_savez",
                    )
