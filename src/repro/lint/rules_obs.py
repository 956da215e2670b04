"""RPR009 — observability hygiene.

Two checks share this id:

* **raw clock reads** — direct ``time.perf_counter()`` /
  ``process_time()`` / ``monotonic()`` / ``thread_time()`` calls (and
  their ``_ns`` variants) inside ``repro.kge``, ``repro.discovery`` and
  ``repro.experiments``.  Ad-hoc timing drifts out of the unified span
  tree and double-counts phases; those packages must time through
  :func:`repro.obs.span` (or :class:`repro.obs.Stopwatch` for budget
  loops).  The :mod:`repro.obs` package itself is the sanctioned clock
  owner and is out of scope.
* **dict-shaped telemetry off the protocol** — a class in the scoped
  packages (plus ``repro.resilience``) that defines ``summary()`` but
  neither derives from ``ReportableMixin``/``Reportable`` nor provides
  ``to_dict``/``to_json`` produces telemetry that cannot be exported
  uniformly; results must speak :class:`repro.obs.reporting.Reportable`.
"""

from __future__ import annotations

import ast
from typing import Iterator

from .findings import Finding
from .rules import ModuleContext, Rule, in_scope, register_rule

__all__ = ["ObservabilityRule"]

_CLOCK_SCOPES = ("repro.kge", "repro.discovery", "repro.experiments")
_REPORTABLE_SCOPES = _CLOCK_SCOPES + ("repro.resilience",)
_CLOCKS = frozenset(
    {
        "perf_counter",
        "process_time",
        "monotonic",
        "thread_time",
        "perf_counter_ns",
        "process_time_ns",
        "monotonic_ns",
        "thread_time_ns",
    }
)
_REPORTABLE_BASES = frozenset({"Reportable", "ReportableMixin"})


def _time_aliases(tree: ast.Module) -> frozenset[str]:
    """Names the module binds to the ``time`` module."""
    aliases = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "time":
                    aliases.add(alias.asname or "time")
    return frozenset(aliases)


def _clock_function_aliases(tree: ast.Module) -> dict[str, str]:
    """``{bound_name: clock_name}`` for ``from time import perf_counter``."""
    aliases: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "time":
            for alias in node.names:
                if alias.name in _CLOCKS:
                    aliases[alias.asname or alias.name] = alias.name
    return aliases


def _base_name(base: ast.expr) -> str | None:
    if isinstance(base, ast.Name):
        return base.id
    if isinstance(base, ast.Attribute):
        return base.attr
    return None


@register_rule
class ObservabilityRule(Rule):
    rule_id = "RPR009"
    name = "observability"
    description = (
        "kge/discovery/experiments time through repro.obs spans, not raw "
        "time.* clocks; summary()-bearing result classes speak Reportable"
    )
    rationale = (
        "The paper's efficiency metric (facts/hour) is assembled from "
        "the span tree; a phase timed with a raw clock is invisible to "
        "it, and a result class outside the Reportable protocol cannot "
        "be joined into the campaign summary tables."
    )
    example = (
        "t0 = time.perf_counter()       # RPR009: invisible phase\n"
        "\n"
        "with span(\"rank.score\"):\n"
        "    ...                        # shows up in facts/hour\n"
    )

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        if in_scope(ctx.module, _CLOCK_SCOPES):
            time_names = _time_aliases(ctx.tree)
            clock_names = _clock_function_aliases(ctx.tree)
            for node in ast.walk(ctx.tree):
                if not isinstance(node, ast.Call):
                    continue
                func = node.func
                if (
                    isinstance(func, ast.Attribute)
                    and func.attr in _CLOCKS
                    and isinstance(func.value, ast.Name)
                    and func.value.id in time_names
                ):
                    yield self.finding(
                        ctx,
                        node,
                        f"raw {func.value.id}.{func.attr}() bypasses the span "
                        "tree; time this phase with repro.obs.span (or "
                        "Stopwatch for budget loops)",
                    )
                elif isinstance(func, ast.Name) and func.id in clock_names:
                    yield self.finding(
                        ctx,
                        node,
                        f"raw {clock_names[func.id]}() (imported from time) "
                        "bypasses the span tree; time this phase with "
                        "repro.obs.span (or Stopwatch for budget loops)",
                    )

        if in_scope(ctx.module, _REPORTABLE_SCOPES):
            for node in ast.walk(ctx.tree):
                if not isinstance(node, ast.ClassDef):
                    continue
                methods = {
                    stmt.name
                    for stmt in node.body
                    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
                }
                if "summary" not in methods:
                    continue
                reportable_base = any(
                    _base_name(base) in _REPORTABLE_BASES for base in node.bases
                )
                if reportable_base:
                    continue
                if {"to_dict", "to_json"} <= methods:
                    continue
                yield self.finding(
                    ctx,
                    node,
                    f"class {node.name} defines summary() but is not "
                    "Reportable; derive from repro.obs.ReportableMixin (or "
                    "provide to_dict/to_json) so its telemetry exports "
                    "uniformly",
                )
