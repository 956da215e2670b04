"""RPR005 — ``__all__`` must match the module's public surface.

Modules that declare ``__all__`` promise an explicit API.  Two drifts
break that promise silently: exporting a name that no longer exists
(``from module import *`` raises at a distance), and adding a public
function or class without exporting it (star-imports and API docs miss
it).  Modules without ``__all__`` are skipped — the convention in this
codebase is that every library module declares one, which the self-clean
test enforces by keeping the tree warning-free.
"""

from __future__ import annotations

import ast
from typing import Iterator

from .findings import Finding
from .rules import ModuleContext, Rule, register_rule

__all__ = ["AllConsistencyRule"]


def _literal_names(node: ast.expr) -> list[str] | None:
    """String elements of a literal list/tuple ``__all__``, else None."""
    if not isinstance(node, (ast.List, ast.Tuple)):
        return None
    names = []
    for element in node.elts:
        if not (isinstance(element, ast.Constant) and isinstance(element.value, str)):
            return None
        names.append(element.value)
    return names


def _collect_toplevel(
    body: list[ast.stmt],
    defined: set[str],
    public_defs: list[ast.stmt],
) -> None:
    """Names bound at module level, recursing into top-level if/try only."""
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined.add(node.name)
            if not node.name.startswith("_"):
                public_defs.append(node)
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    defined.add(target.id)
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            defined.add(node.target.id)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                defined.add(alias.asname or alias.name.split(".")[0])
        elif isinstance(node, ast.If):
            _collect_toplevel(node.body, defined, public_defs)
            _collect_toplevel(node.orelse, defined, public_defs)
        elif isinstance(node, ast.Try):
            for block in (node.body, node.orelse, node.finalbody):
                _collect_toplevel(block, defined, public_defs)
            for handler in node.handlers:
                _collect_toplevel(handler.body, defined, public_defs)


@register_rule
class AllConsistencyRule(Rule):
    rule_id = "RPR005"
    name = "all-consistency"
    description = (
        "__all__ must list every public top-level def/class and only "
        "names the module actually defines"
    )
    rationale = (
        "__all__ is the module's published contract: star imports, "
        "documentation builds, and the package re-export checks "
        "(RPR013) all read it.  A phantom entry breaks consumers at "
        "import time; an unlisted public def quietly forks the API "
        "into 'documented' and 'accidental' halves."
    )
    example = (
        "__all__ = [\"gone\"]        # RPR005: 'gone' is not defined\n"
        "\n"
        "def present():             # RPR005: public but unlisted\n"
        "    ...\n"
    )

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        all_node: ast.Assign | None = None
        exported: list[str] | None = None
        for node in ctx.tree.body:
            if isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "__all__"
                for target in node.targets
            ):
                all_node = node
                exported = _literal_names(node.value)
                break
        if all_node is None:
            return
        if exported is None:
            yield self.finding(
                ctx, all_node, "__all__ is not a literal list/tuple of strings"
            )
            return

        defined: set[str] = set()
        public_defs: list[ast.stmt] = []
        _collect_toplevel(ctx.tree.body, defined, public_defs)

        for name in exported:
            if name not in defined:
                yield self.finding(
                    ctx,
                    all_node,
                    f"__all__ exports {name!r} but the module does not "
                    "define or import it",
                )
        for node in public_defs:
            if node.name not in exported:  # type: ignore[attr-defined]
                yield self.finding(
                    ctx,
                    node,
                    f"public {type(node).__name__.replace('Def', '').lower()} "
                    f"{node.name!r} is missing from __all__ "
                    "(export it or make it private)",  # type: ignore[attr-defined]
                )
