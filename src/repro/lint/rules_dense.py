"""RPR017 — dense materialisation of graph-scale matrices.

The storage substrate keeps every graph-scale object sparse or blocked:
adjacency matrices are CSR, two-hop products are computed slab by slab
under a memory budget (:mod:`repro.kg.blocked`), and triple columns are
mmap views.  One careless ``.toarray()`` — or an ``np.zeros((n, n))``
scratch buffer — silently re-introduces the Θ(N²) footprint the whole
substrate exists to avoid: at full YAGO3-10 scale a single dense
adjacency is ~121 GiB.

Inside the ``repro.kg`` and ``repro.discovery`` scopes this rule flags:

* ``.toarray()`` / ``.todense()`` calls — densifying a sparse matrix;
* ``np.zeros`` / ``np.ones`` / ``np.empty`` / ``np.full`` allocating a
  *square* 2-D shape ``(x, x)`` where ``x`` is a variable or expression
  (literal constants stay legal: small fixed-size scratch is fine).

The backend-internal modules (``repro.kg.storage``, ``repro.kg.blocked``)
are exempt — blocking and densifying bounded slabs is their job.
Deliberate small-graph densification elsewhere carries an inline
``# lint: disable=RPR017`` with the justification in view.
"""

from __future__ import annotations

import ast
from typing import Iterator

from .findings import Finding
from .rules import ModuleContext, Rule, in_scope, numpy_aliases, register_rule

__all__ = ["DenseMaterialisationRule"]

_SCOPES = ("repro.kg", "repro.discovery")
_EXEMPT = ("repro.kg.storage", "repro.kg.blocked")
_DENSIFIERS = frozenset({"toarray", "todense"})
_ALLOCATORS = frozenset({"zeros", "ones", "empty", "full"})


def _is_square_variable_shape(shape: ast.expr) -> bool:
    """Whether ``shape`` is a 2-tuple of identical non-literal dims."""
    if not isinstance(shape, ast.Tuple) or len(shape.elts) != 2:
        return False
    first, second = shape.elts
    if isinstance(first, ast.Constant) and isinstance(second, ast.Constant):
        return False
    return ast.dump(first) == ast.dump(second)


@register_rule
class DenseMaterialisationRule(Rule):
    rule_id = "RPR017"
    name = "dense-materialisation"
    description = (
        "no dense materialisation of graph-scale matrices in kg/discovery: "
        ".toarray()/.todense() and square N×N allocations are flagged"
    )
    rationale = (
        "Every statistics kernel is written to keep its footprint "
        "proportional to edges (CSR) or to a bounded slab, never to N². "
        "A stray .toarray() or np.zeros((n, n)) works on the 1× replicas "
        "and then OOMs at full dataset scale — ~121 GiB for a dense "
        "YAGO3-10 adjacency.  Densification belongs to the backend "
        "internals (storage/blocked), which are exempt; anywhere else it "
        "must carry an explicit suppression justifying the bound."
    )
    example = (
        "dense = adj.toarray()                 # RPR017: Θ(N²) bytes\n"
        "scores = np.zeros((n, n))             # RPR017: square alloc\n"
        "\n"
        "for lo, hi, a_blk, t_blk in iter_two_hop_blocks(adj, budget):\n"
        "    ...                               # bounded slab instead\n"
    )

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        if in_scope(ctx.module, _EXEMPT) or not in_scope(ctx.module, _SCOPES):
            return
        np_names = numpy_aliases(ctx.tree)
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if (
                isinstance(func, ast.Attribute)
                and func.attr in _DENSIFIERS
            ):
                yield self.finding(
                    ctx,
                    node,
                    f".{func.attr}() materialises a sparse matrix densely "
                    "(Θ(N²) bytes at graph scale) — keep it CSR, or use "
                    "the blocked kernels in repro.kg.blocked",
                )
            elif (
                isinstance(func, ast.Attribute)
                and func.attr in _ALLOCATORS
                and isinstance(func.value, ast.Name)
                and func.value.id in np_names
                and node.args
                and _is_square_variable_shape(node.args[0])
            ):
                yield self.finding(
                    ctx,
                    node,
                    f"np.{func.attr} with a square (x, x) shape allocates "
                    "a dense N×N matrix — graph-scale scratch must be "
                    "sparse or slab-bounded (repro.kg.blocked)",
                )
