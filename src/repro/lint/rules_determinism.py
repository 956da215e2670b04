"""RPR010 — determinism hazards.

The paper's claims rest on bit-reproducible pipelines: identical seeds
must give identical sampling weights, negatives, and ranks.  A single
unseeded generator or a set iterated into an ordered result anywhere in
the code a run executes breaks that.  This rule checks every scope of
every module — module and class bodies, functions, methods and nested
defs, with their lambdas and comprehensions — so no hazard depends on
an analysis of who calls it.
"""

from __future__ import annotations

import ast
from typing import Iterator

from .findings import Finding
from .rules import ModuleContext, Rule, dotted_name, register_rule

__all__ = ["DeterminismTaintRule"]

_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)

#: Calls that turn their first argument into an ordered result.
_ORDER_SINKS = frozenset(
    {"list", "tuple", "enumerate", "array", "fromiter", "stack", "concatenate"}
)


def _header(node: ast.AST) -> list[ast.expr]:
    """The parts of a def or class evaluated in the enclosing scope."""
    if isinstance(node, ast.ClassDef):
        return [
            *node.decorator_list,
            *node.bases,
            *(keyword.value for keyword in node.keywords),
        ]
    defaults = [default for default in node.args.kw_defaults if default is not None]
    return [*node.decorator_list, *node.args.defaults, *defaults]


def _scopes(
    body: list[ast.stmt], qual: str, prefix: str
) -> Iterator[tuple[str, list[ast.AST]]]:
    """``(qualified name, nodes)`` of the scope ``body`` and each nested one.

    A scope's nodes stop at nested def and class bodies, which form
    scopes of their own; their decorators, defaults and bases stay in
    the enclosing scope, where they are evaluated.
    """
    nodes: list[ast.AST] = []
    nested: list[ast.AST] = []
    stack: list[ast.AST] = list(body)
    while stack:
        node = stack.pop()
        nodes.append(node)
        if isinstance(node, _DEFS):
            nested.append(node)
            stack.extend(_header(node))
        else:
            stack.extend(ast.iter_child_nodes(node))
    yield qual, nodes
    for node in nested:
        name = prefix + node.name  # type: ignore[attr-defined]
        inner = f"{name}." if isinstance(node, ast.ClassDef) else f"{name}.<locals>."
        yield from _scopes(node.body, name, inner)  # type: ignore[attr-defined]


def _is_set_call(expr: ast.expr) -> bool:
    if isinstance(expr, (ast.Set, ast.SetComp)):
        return True
    if isinstance(expr, ast.Call):
        dotted = dotted_name(expr.func)
        return dotted is not None and dotted[-1] in ("set", "frozenset")
    return False


def _set_names(nodes: list[ast.AST]) -> frozenset[str]:
    """Names that every assignment in the scope binds to a set."""
    assigned: dict[str, bool] = {}
    for node in nodes:
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    is_set = _is_set_call(node.value)
                    assigned[target.id] = assigned.get(target.id, True) and is_set
    return frozenset(name for name, ok in assigned.items() if ok)


def _seed(call: ast.Call) -> ast.expr | None:
    """The seed a ``default_rng``/``SeedSequence`` call passes, if any."""
    if call.args:
        return call.args[0]
    for keyword in call.keywords:
        if keyword.arg in ("seed", "entropy"):
            return keyword.value
    return None


def _hazards(nodes: list[ast.AST]) -> Iterator[tuple[ast.expr, str]]:
    sets = _set_names(nodes)

    def is_set(expr: ast.expr) -> bool:
        return _is_set_call(expr) or (isinstance(expr, ast.Name) and expr.id in sets)

    for node in nodes:
        if isinstance(node, ast.Call):
            dotted = dotted_name(node.func)
            if dotted is None:
                continue
            tail = dotted[-1]
            if tail in ("default_rng", "SeedSequence"):
                seed = _seed(node)
                if seed is None or (
                    isinstance(seed, ast.Constant) and seed.value is None
                ):
                    yield node, f"{'.'.join(dotted)}() without a seed"
            if tail in _ORDER_SINKS and node.args and is_set(node.args[0]):
                yield node.args[0], f"{tail}() over a set has no deterministic order"
        elif isinstance(node, ast.For):
            if is_set(node.iter):
                yield node.iter, "iterating a set has no deterministic order"
        elif isinstance(node, (ast.ListComp, ast.GeneratorExp, ast.DictComp)):
            for generator in node.generators:
                if is_set(generator.iter):
                    yield generator.iter, "iterating a set has no deterministic order"


@register_rule
class DeterminismTaintRule(Rule):
    rule_id = "RPR010"
    name = "determinism-taint"
    description = "unseeded RNG or unordered-set iteration anywhere in a module"
    rationale = (
        "Bit-reproducibility is a whole-pipeline property: an unseeded "
        "default_rng() or a set materialised into an array anywhere a "
        "run executes silently changes weights and ranks between runs.  "
        "The rule checks every scope of every module, so a hazard is "
        "found wherever it sits, however it is called.  A seed is the "
        "first positional argument or a seed=/entropy= keyword; a "
        "literal None is no seed."
    )
    example = (
        "RNG = np.random.default_rng()        # RPR010: unseeded\n"
        "\n"
        "def sample(kg, seed=None):\n"
        "    rng = np.random.default_rng(seed=seed)   # ok: seeded\n"
        "    return list({t for t in kg})     # RPR010: unordered iteration\n"
    )

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        for qual, nodes in _scopes(ctx.tree.body, "<module>", ""):
            for node, detail in _hazards(nodes):
                yield self.finding(ctx, node, f"{detail} in '{qual}'")
