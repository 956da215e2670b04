"""RPR008 — dense gradient reads on possibly-sparse parameters.

With the row-sparse training fast path, ``param.grad`` on an
embedding-style parameter may hold a
:class:`~repro.autograd.sparse.SparseGrad` instead of a dense ndarray.
Indexing it, doing arithmetic on it, or passing it to a numpy routine
assumes a dense array and breaks the moment the ``sparse_grad`` flag is
enabled.  Inside the ``repro.kge`` and ``repro.autograd`` scopes, any
function that reads ``.grad`` in such a dense position must visibly
handle the sparse case — mention ``SparseGrad`` (an ``isinstance``
dispatch or a type annotation), call one of its conversion helpers
(``to_dense``/``add_into_dense``/``norm_squared``), or settle optimizer
state with ``flush()`` first.

Functions named ``backward`` are exempt: they are the tape engine's own
plumbing, pass gradients through opaquely, and are already policed by
RPR004.  ``x.grad is None`` checks and ``isinstance`` dispatches do not
count as dense reads.
"""

from __future__ import annotations

import ast
from typing import Iterator

from .findings import Finding
from .rules import ModuleContext, Rule, in_scope, register_rule

__all__ = ["SparseGradReadRule"]

_SCOPES = ("repro.kge", "repro.autograd")
#: Calling any of these marks a function as sparse-aware.
_SPARSE_HANDLERS = frozenset({"flush", "to_dense", "add_into_dense", "norm_squared"})


def _handles_sparse(func: ast.AST) -> bool:
    """Whether the function visibly accounts for SparseGrad gradients."""
    for node in ast.walk(func):
        if isinstance(node, ast.Name) and node.id == "SparseGrad":
            return True
        if isinstance(node, ast.Attribute) and (
            node.attr == "SparseGrad" or node.attr in _SPARSE_HANDLERS
        ):
            return True
    return False


def _iter_local(func: ast.AST) -> Iterator[ast.AST]:
    """Walk a function body without descending into nested functions."""
    stack = list(ast.iter_child_nodes(func))
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        stack.extend(ast.iter_child_nodes(node))


def _dense_read_positions(node: ast.AST) -> tuple[ast.expr, ...]:
    """Child expressions of ``node`` that are consumed as dense arrays."""
    if isinstance(node, ast.Subscript):
        return (node.value,)
    if isinstance(node, ast.BinOp):
        return (node.left, node.right)
    if isinstance(node, ast.UnaryOp):
        return (node.operand,)
    if isinstance(node, ast.AugAssign):
        return (node.value,)
    if isinstance(node, ast.Call):
        if isinstance(node.func, ast.Name) and node.func.id == "isinstance":
            return ()
        return tuple(node.args) + tuple(kw.value for kw in node.keywords)
    return ()


def _grad_reads(func: ast.AST) -> Iterator[ast.Attribute]:
    for node in _iter_local(func):
        for child in _dense_read_positions(node):
            if (
                isinstance(child, ast.Attribute)
                and child.attr == "grad"
                and isinstance(child.ctx, ast.Load)
            ):
                yield child


@register_rule
class SparseGradReadRule(Rule):
    rule_id = "RPR008"
    name = "sparse-grad-reads"
    description = (
        "dense .grad reads in kge/autograd must handle SparseGrad, "
        "densify, or flush() first"
    )
    rationale = (
        "The row-sparse training fast path leaves ``.grad`` holding a "
        "SparseGrad accumulator between flushes; code that indexes or "
        "norms it as a dense array either crashes or, worse, reads "
        "stale rows.  Every dense read must prove the gradient is "
        "dense first."
    )
    example = (
        "norm = np.linalg.norm(p.grad)        # RPR008: may be sparse\n"
        "\n"
        "p.flush()\n"
        "norm = np.linalg.norm(p.grad)        # dense by construction\n"
    )

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        if not in_scope(ctx.module, _SCOPES):
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if node.name == "backward":
                continue
            if _handles_sparse(node):
                continue
            for read in _grad_reads(node):
                yield self.finding(
                    ctx,
                    read,
                    ".grad may be a SparseGrad here; index/arithmetic/numpy "
                    "use assumes a dense array — dispatch on "
                    "isinstance(..., SparseGrad), densify with to_dense(), "
                    "or flush() the optimizer before reading",
                )
