"""RPR010 — inter-procedural determinism taint.

The paper's claims rest on bit-reproducible pipelines: identical seeds
must give identical sampling weights, negatives, and ranks.  A single
unseeded generator or a set iterated into an array anywhere *below* a
public entry point of ``repro.discovery`` or ``repro.kge`` breaks that,
even when the entry point itself is clean.  This rule walks the call
graph from those entry points and flags every reachable hazard, naming
the path that reaches it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator

from .callgraph import node_key, split_node
from .findings import Finding
from .rules import ProjectRule, in_scope, register_rule

if TYPE_CHECKING:
    from .callgraph import CallGraph, ProjectIndex

__all__ = ["DeterminismTaintRule"]

#: Packages whose public API starts a reproducibility-sensitive pipeline:
#: every function a module of theirs lists in ``__all__`` is an entry
#: point, and so is every method of a class listed there.
ENTRY_PACKAGES = ("repro.discovery", "repro.kge")


def entry_points(index: "ProjectIndex") -> list[str]:
    """Call-graph nodes of the public callables of :data:`ENTRY_PACKAGES`."""
    entries: set[str] = set()
    for module, info in index.modules.items():
        if not in_scope(module, ENTRY_PACKAGES):
            continue
        for name in info.exports:
            kind, qual = index.resolve(f"{module}.{name}")
            if kind != "symbol":
                continue
            owner, symbol = split_node(qual)
            owner_info = index.modules[owner]
            if symbol in owner_info.classes:
                methods = owner_info.classes[symbol].methods.values()
                entries.update(node_key(owner, method) for method in methods)
            elif symbol in owner_info.functions:
                entries.add(qual)
    return sorted(entries)


@register_rule
class DeterminismTaintRule(ProjectRule):
    rule_id = "RPR010"
    name = "determinism-taint"
    description = (
        "unseeded RNG or unordered-set iteration reachable from the "
        "public API of repro.discovery/repro.kge"
    )
    rationale = (
        "Bit-reproducibility is a whole-pipeline property: an unseeded "
        "default_rng() or a set materialised into an array three calls "
        "below discover_facts() silently changes weights and ranks "
        "between runs.  Per-file rules cannot see the call chain; this "
        "rule taints everything reachable from the pipeline entry points: "
        "the functions and class methods that the modules of "
        "repro.discovery and repro.kge list in __all__."
    )
    example = (
        "__all__ = [\"discover_facts\"]   # in repro.discovery\n"
        "\n"
        "def discover_facts(kg):\n"
        "    return _sample(kg)\n"
        "\n"
        "def _sample(kg):\n"
        "    rng = np.random.default_rng()   # RPR010: unseeded, reachable\n"
        "    return list({t for t in kg})    # RPR010: unordered iteration\n"
    )

    def check_project(
        self, index: "ProjectIndex", graph: "CallGraph"
    ) -> Iterator[Finding]:
        parents = graph.reachable(entry_points(index))
        for key in sorted(parents):
            module, qual = split_node(key)
            fn = graph.nodes[key][1]
            if not fn.hazards:
                continue
            path = index.modules[module].path
            witness = " -> ".join(graph.witness_path(parents, key))
            for hazard in fn.hazards:
                yield self.project_finding(
                    path,
                    hazard.lineno,
                    hazard.col,
                    f"{hazard.detail} in '{qual}' (reachable via {witness})",
                )
