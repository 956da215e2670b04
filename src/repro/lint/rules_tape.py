"""RPR002 — inference hot paths must score under ``autograd.no_grad``.

The discovery and evaluation layers score millions of candidate triples
but never call ``backward``; every scoring call recorded on the autodiff
tape is a backward closure allocated for nothing.  This rule requires
that, inside the inference-only modules (``repro.discovery.*``,
``repro.kge.evaluation`` / ``query`` / ``diagnostics``), every call to a
scoring entry point is lexically enclosed in a ``with no_grad():`` block.

The check is lexical by design: the numpy wrappers (``scores_sp`` etc.)
already guard internally, but an *explicit* block at the call site keeps
the invariant visible, covers future direct ``score_*`` calls, and makes
the whole candidate pipeline (corruption building, filtering) tape-free.
"""

from __future__ import annotations

import ast
from typing import Iterator

from .findings import Finding
from .rules import ModuleContext, Rule, in_scope, register_rule

__all__ = ["TapeHygieneRule"]

#: Module prefixes whose scoring calls must run under no_grad.
_SCOPED_MODULES = (
    "repro.discovery",
    "repro.kge.evaluation",
    "repro.kge.query",
    "repro.kge.diagnostics",
    "repro.kge.ranking",
)

#: Scoring entry points: the model interface, the ranking protocol, and
#: the inference-only discovery pipelines built on top of them.
_SCORING_CALLS = frozenset(
    {
        "score_spo",
        "score_sp",
        "score_po",
        "scores_spo",
        "scores_sp",
        "scores_po",
        "compute_ranks",
        "evaluate_ranking",
        "discover_facts",
        "exhaustive_discover_facts",
        "anytime_discover",
    }
)


def _is_no_grad(item: ast.withitem) -> bool:
    expr = item.context_expr
    if not isinstance(expr, ast.Call):
        return False
    func = expr.func
    if isinstance(func, ast.Name):
        return func.id == "no_grad"
    if isinstance(func, ast.Attribute):
        return func.attr == "no_grad"
    return False


def _call_name(node: ast.Call) -> str | None:
    if isinstance(node.func, ast.Name):
        return node.func.id
    if isinstance(node.func, ast.Attribute):
        return node.func.attr
    return None


@register_rule
class TapeHygieneRule(Rule):
    rule_id = "RPR002"
    name = "tape-hygiene"
    description = (
        "model scoring in repro.discovery / repro.kge.{evaluation,query,"
        "diagnostics} must run inside `with no_grad():`"
    )
    rationale = (
        "Scoring a full candidate mesh records millions of tape nodes "
        "nobody will ever backpropagate through; the memory blow-up is "
        "the difference between a feasible and an infeasible discovery "
        "run.  Inference modules therefore score under no_grad() only."
    )
    example = (
        "def rank(model, c):\n"
        "    return model.score_spo(c)       # RPR002: taped scoring\n"
        "\n"
        "def rank(model, c):\n"
        "    with no_grad():\n"
        "        return model.score_spo(c)   # tape-free\n"
    )

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        if not in_scope(ctx.module, _SCOPED_MODULES):
            return
        yield from self._walk(ctx, ctx.tree, guarded=False)

    def _walk(
        self, ctx: ModuleContext, node: ast.AST, guarded: bool
    ) -> Iterator[Finding]:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.With) and any(
                _is_no_grad(item) for item in child.items
            ):
                for item in child.items:
                    yield from self._walk(ctx, item, guarded)
                for stmt in child.body:
                    # A def/lambda directly inside the block still defers
                    # its body past the guard.
                    stmt_guarded = not isinstance(
                        stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
                    )
                    yield from self._walk(ctx, stmt, guarded=stmt_guarded)
                continue
            # A nested function's body executes later, outside any
            # no_grad block that happens to surround its definition.
            child_guarded = guarded and not isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
            )
            if isinstance(child, ast.Call):
                name = _call_name(child)
                if name in _SCORING_CALLS and not child_guarded:
                    yield self.finding(
                        ctx,
                        child,
                        f"call to scoring entry point {name}() outside "
                        "`with no_grad():` records unused backward closures",
                    )
            yield from self._walk(ctx, child, child_guarded)
