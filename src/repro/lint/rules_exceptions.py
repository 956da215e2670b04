"""RPR014 — exception-contract checks across the call graph.

The resilience layer raises *typed* errors (``CheckpointCorruptError``,
``DeadlineExceededError``) precisely so callers can tell corrupt state
from an overrun budget.  A caller that wraps such a call in a
broad ``except Exception`` throws that type information away.  The rule
computes each function's transitive raise set over the call graph and
flags broad handlers that swallow a project-typed error no earlier
typed handler covers.  Handlers that re-raise are exempt — conditional
propagation is a legitimate isolation pattern.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator

from .callgraph import split_node
from .findings import Finding
from .rules import ProjectRule, register_rule

if TYPE_CHECKING:
    from .callgraph import CallGraph, ProjectIndex

__all__ = ["ExceptionContractRule"]

_BROAD = frozenset({"Exception", "BaseException"})


@register_rule
class ExceptionContractRule(ProjectRule):
    rule_id = "RPR014"
    name = "exception-contract"
    description = (
        "broad except handlers that swallow project-typed errors raised "
        "(transitively) inside the try body"
    )
    rationale = (
        "Typed errors are an API contract: cache quarantine and the "
        "server's typed error responses branch on them.  A broad handler "
        "around a call that transitively raises CheckpointCorruptError "
        "treats a corrupt checkpoint like any hiccup — the caller can no "
        "longer quarantine the file and retrain.  "
        "Knowing what a call can raise requires the whole call graph."
    )
    example = (
        "def load(path):\n"
        "    raise CheckpointCorruptError(path)\n"
        "\n"
        "def run(path):\n"
        "    try:\n"
        "        load(path)\n"
        "    except Exception:   # RPR014: swallows the typed error\n"
        "        pass\n"
    )

    def check_project(
        self, index: "ProjectIndex", graph: "CallGraph"
    ) -> Iterator[Finding]:
        raises = graph.transitive_raises()
        for key in sorted(graph.nodes):
            module, fn = graph.nodes[key]
            info = index.modules[module]
            for try_info in fn.tries:
                escaping: set[str] = set()
                for site in try_info.calls:
                    for target in graph.resolve_call(module, fn, site.parts):
                        escaping.update(
                            exc for exc in raises.get(target, ()) if ":" in exc
                        )
                for raise_site in try_info.raises:
                    resolved = graph.resolve_exception(module, raise_site.parts)
                    if resolved is not None and ":" in resolved:
                        escaping.add(resolved)
                if not escaping:
                    continue

                handler_types = [
                    [
                        graph.resolve_exception(module, parts)
                        for parts in handler.types
                    ]
                    for handler in try_info.handlers
                ]
                covered: set[str] = set()
                for types in handler_types:
                    typed = [t for t in types if t is not None and t not in _BROAD]
                    for exc in escaping:
                        ancestry = index.exception_ancestry(*split_node(exc))
                        if any(t in ancestry for t in typed):
                            covered.add(exc)
                uncovered = escaping - covered
                if not uncovered:
                    continue

                for handler, types in zip(try_info.handlers, handler_types):
                    broad = not handler.types or any(t in _BROAD for t in types)
                    if not broad or handler.reraises:
                        continue
                    names = ", ".join(
                        sorted(split_node(exc)[1] for exc in uncovered)
                    )
                    yield self.project_finding(
                        info.path,
                        handler.lineno,
                        handler.col,
                        f"broad except in '{fn.qual}' swallows typed "
                        f"{names}; catch the typed error first or re-raise",
                    )
