"""RPR003 / RPR004 — autodiff-tape integrity rules.

RPR003 bans in-place mutation of ``Tensor.data`` outside the modules that
own parameter updates (``repro.autograd.optim`` / ``modules`` / the
tensor engine itself).  Writing through ``.data`` bypasses the tape, so a
mutation anywhere else silently corrupts gradients recorded before it.
Constructor-time initialisation (inside ``__init__``) is exempt: no tape
exists before the first forward pass.  Names statically known to hold
scipy.sparse matrices are also exempt — their ``.data`` is the raw CSR
value buffer, not a Tensor's tape-tracked storage.

RPR004 checks backward-closure completeness inside ``repro.autograd``:
an op that attaches two or more parents via ``Tensor._make`` broadcasts,
so each ``_accumulate`` call in its backward closure must either route
the gradient through ``_unbroadcast`` or sit under an explicit
``requires_grad`` guard (the style used when shapes are exact by
construction).  Direct writes to ``.grad`` inside a backward closure are
always flagged — they bypass ``_accumulate``'s requires_grad guard.
"""

from __future__ import annotations

import ast
from typing import Iterator

from .findings import Finding
from .rules import ModuleContext, Rule, dotted_name, in_scope, register_rule

__all__ = ["DataMutationRule", "BackwardClosureRule"]

#: Modules allowed to write through ``Tensor.data``.
_MUTATION_EXEMPT = (
    "repro.autograd.optim",
    "repro.autograd.modules",
    "repro.autograd.tensor",
)

_AUTOGRAD_PREFIX = "repro.autograd"

#: Constructor names of the scipy.sparse matrix/array types whose ``.data``
#: attribute is a raw value buffer, not an autograd ``Tensor.data``.
_SPARSE_CONSTRUCTORS = frozenset(
    {
        "bsr_matrix", "coo_matrix", "csc_matrix", "csr_matrix",
        "dia_matrix", "dok_matrix", "lil_matrix",
        "bsr_array", "coo_array", "csc_array", "csr_array",
        "dia_array", "dok_array", "lil_array",
    }
)


def scipy_sparse_aliases(tree: ast.Module) -> frozenset[str]:
    """Names the module binds to the ``scipy.sparse`` package."""
    aliases = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "scipy.sparse":
                    aliases.add(alias.asname or "scipy")
        elif isinstance(node, ast.ImportFrom):
            if node.module == "scipy":
                for alias in node.names:
                    if alias.name == "sparse":
                        aliases.add(alias.asname or "sparse")
    return frozenset(aliases)


def _is_sparse_constructor(call: ast.expr, sparse_names: frozenset[str]) -> bool:
    if not isinstance(call, ast.Call):
        return False
    dotted = dotted_name(call.func)
    if dotted is None:
        return False
    if dotted[-1] not in _SPARSE_CONSTRUCTORS:
        return False
    # Either ``sp.csr_matrix(...)`` through a scipy.sparse alias or a
    # bare ``csr_matrix(...)`` imported from it.
    return len(dotted) == 1 or dotted[0] in sparse_names


def sparse_locals(func: ast.AST, sparse_names: frozenset[str]) -> frozenset[str]:
    """Names in ``func`` statically known to hold scipy sparse matrices.

    A name qualifies when every assignment to it inside ``func`` binds a
    scipy.sparse constructor call (``sp.csr_matrix(...)``) — reassigned
    or ambiguous names never qualify, keeping the inference sound for
    RPR003's non-Tensor exemption.
    """
    assigned: dict[str, bool] = {}
    for node in ast.walk(func):
        targets: list[ast.expr] = []
        if isinstance(node, ast.Assign):
            targets = list(node.targets)
            value = node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets = [node.target]
            value = node.value
        else:
            continue
        for target in targets:
            if isinstance(target, ast.Name):
                is_sparse = _is_sparse_constructor(value, sparse_names)
                previous = assigned.get(target.id)
                assigned[target.id] = is_sparse if previous is None else (
                    previous and is_sparse
                )
    return frozenset(name for name, ok in assigned.items() if ok)


def _mutated_data_attribute(target: ast.expr) -> ast.Attribute | None:
    """The ``<x>.data`` attribute written by an assignment target, if any."""
    while isinstance(target, ast.Subscript):
        target = target.value
    if isinstance(target, ast.Attribute) and target.attr == "data":
        return target
    return None


@register_rule
class DataMutationRule(Rule):
    rule_id = "RPR003"
    name = "no-data-mutation"
    description = (
        "in-place writes to Tensor.data outside repro.autograd.{optim,"
        "modules} bypass the gradient tape"
    )
    rationale = (
        "``.data`` is the tape's escape hatch: writes through it are "
        "invisible to autograd, so gradients recorded before the write "
        "silently become wrong.  Only the optimizer and module layers "
        "may use it.  Names statically known to hold scipy.sparse "
        "matrices are exempt — their .data is a raw CSR value buffer."
    )
    example = (
        "emb.data[idx] -= lr * g       # RPR003 outside optim/modules\n"
        "\n"
        "adj = sp.csr_matrix(x)\n"
        "adj.data[:] = 1               # exempt: sparse value buffer\n"
    )

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        if in_scope(ctx.module, _MUTATION_EXEMPT):
            return
        aliases = scipy_sparse_aliases(ctx.tree)
        yield from self._walk(
            ctx, ctx.tree, in_init=False, aliases=aliases, sparse=frozenset()
        )

    def _walk(
        self,
        ctx: ModuleContext,
        node: ast.AST,
        in_init: bool,
        aliases: frozenset[str],
        sparse: frozenset[str],
    ) -> Iterator[Finding]:
        for child in ast.iter_child_nodes(node):
            child_in_init = in_init or (
                isinstance(child, ast.FunctionDef) and child.name == "__init__"
            )
            child_sparse = sparse
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                child_sparse = sparse | sparse_locals(child, aliases)
            targets: list[ast.expr] = []
            if isinstance(child, ast.Assign):
                targets = list(child.targets)
            elif isinstance(child, (ast.AugAssign, ast.AnnAssign)):
                targets = [child.target]
            for target in targets:
                attribute = _mutated_data_attribute(target)
                if attribute is None or child_in_init:
                    continue
                base = attribute.value
                if isinstance(base, ast.Name) and base.id in sparse:
                    continue  # scipy sparse value buffer, not a Tensor
                yield self.finding(
                    ctx,
                    attribute,
                    "in-place mutation of .data outside "
                    "repro.autograd.{optim,modules} bypasses the tape; "
                    "route updates through an optimizer or Module method",
                )
            yield from self._walk(ctx, child, child_in_init, aliases, child_sparse)


def _contains_unbroadcast(node: ast.AST) -> bool:
    return any(
        isinstance(sub, ast.Name) and sub.id == "_unbroadcast"
        for sub in ast.walk(node)
    )


def _test_mentions_requires_grad(test: ast.expr) -> bool:
    return any(
        isinstance(sub, ast.Attribute) and sub.attr == "requires_grad"
        for sub in ast.walk(test)
    )


@register_rule
class BackwardClosureRule(Rule):
    rule_id = "RPR004"
    name = "backward-closure-completeness"
    description = (
        "multi-parent backward closures must _unbroadcast gradients or "
        "guard each parent with requires_grad; never write .grad directly"
    )
    rationale = (
        "An op with two or more parents broadcasts, so each parent's "
        "gradient must be reduced back to the parent's shape.  A "
        "backward closure that feeds _accumulate a raw gradient "
        "produces misshapen updates only when broadcasting actually "
        "happens — the worst kind of latent bug."
    )
    example = (
        "def backward(grad):\n"
        "    a._accumulate(grad * b.data)              # RPR004\n"
        "    a._accumulate(_unbroadcast(grad * b.data, a.shape))  # ok\n"
    )

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        if not in_scope(ctx.module, (_AUTOGRAD_PREFIX,)):
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.FunctionDef):
                continue
            if node.name == "backward":
                yield from self._check_grad_writes(ctx, node)
            nested = {
                stmt.name: stmt
                for stmt in node.body
                if isinstance(stmt, ast.FunctionDef)
            }
            for closure in self._multi_parent_closures(node, nested):
                yield from self._check_accumulates(ctx, closure)

    @staticmethod
    def _multi_parent_closures(
        func: ast.FunctionDef, nested: dict[str, ast.FunctionDef]
    ) -> Iterator[ast.FunctionDef]:
        """Backward closures passed to ``Tensor._make`` with ≥2 parents.

        Only literal parent tuples are sized statically; ops that build
        their parent list dynamically (concatenate/stack/conv2d) are out
        of reach for this check and rely on tests instead.
        """
        for call in ast.walk(func):
            if not (
                isinstance(call, ast.Call)
                and isinstance(call.func, ast.Attribute)
                and call.func.attr == "_make"
                and len(call.args) >= 3
            ):
                continue
            parents, backward = call.args[1], call.args[2]
            if (
                isinstance(parents, ast.Tuple)
                and len(parents.elts) >= 2
                and isinstance(backward, ast.Name)
                and backward.id in nested
            ):
                yield nested[backward.id]

    def _check_accumulates(
        self, ctx: ModuleContext, closure: ast.FunctionDef
    ) -> Iterator[Finding]:
        parents: dict[ast.AST, ast.AST] = {}
        for node in ast.walk(closure):
            for child in ast.iter_child_nodes(node):
                parents[child] = node
        for node in ast.walk(closure):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "_accumulate"
            ):
                continue
            if any(_contains_unbroadcast(arg) for arg in node.args):
                continue
            if self._guarded_by_requires_grad(node, parents):
                continue
            yield self.finding(
                ctx,
                node,
                "_accumulate in a multi-parent backward closure neither "
                "routes through _unbroadcast nor sits under a "
                "requires_grad guard; broadcast gradients will be misshapen",
            )

    @staticmethod
    def _guarded_by_requires_grad(
        node: ast.AST, parents: dict[ast.AST, ast.AST]
    ) -> bool:
        current = parents.get(node)
        while current is not None:
            if isinstance(current, ast.If) and _test_mentions_requires_grad(
                current.test
            ):
                return True
            current = parents.get(current)
        return False

    def _check_grad_writes(
        self, ctx: ModuleContext, closure: ast.FunctionDef
    ) -> Iterator[Finding]:
        for node in ast.walk(closure):
            targets: list[ast.expr] = []
            if isinstance(node, ast.Assign):
                targets = list(node.targets)
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                targets = [node.target]
            for target in targets:
                while isinstance(target, ast.Subscript):
                    target = target.value
                if isinstance(target, ast.Attribute) and target.attr == "grad":
                    yield self.finding(
                        ctx,
                        target,
                        "direct write to .grad inside a backward closure "
                        "bypasses _accumulate's requires_grad guard",
                    )
