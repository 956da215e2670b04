"""Pass 1 of the whole-program analyzer: per-module fact extraction.

:func:`build_module_info` distils one parsed module into a
:class:`ModuleInfo` — the record RPR010 needs to walk the call graph:
the import bindings with relative imports resolved to absolute dotted
targets, the top-level symbol table and ``__all__``, each class's bases
and methods, and per-function call sites (with the functions passed to
them as values), nested defs, locally-typed instances, parameter and
lambda-argument names, and determinism hazards.

The extraction is purely syntactic and local to one module: a
``ModuleInfo`` is a function of the module source alone.  Everything
cross-module (name resolution, the call graph, reachability) lives in
:mod:`repro.lint.callgraph` and is computed once per run from the
per-module records.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path

__all__ = [
    "ClassInfo",
    "FunctionInfo",
    "Hazard",
    "ModuleInfo",
    "build_module_info",
    "dotted_name",
    "scipy_sparse_aliases",
    "sparse_locals",
]

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


def dotted_name(expr: ast.expr) -> tuple[str, ...] | None:
    """``a.b.c`` as ``("a", "b", "c")``; None for non-name-rooted chains."""
    parts: list[str] = []
    while isinstance(expr, ast.Attribute):
        parts.append(expr.attr)
        expr = expr.value
    if isinstance(expr, ast.Name):
        parts.append(expr.id)
        return tuple(reversed(parts))
    return None


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


# ----------------------------------------------------------------------
# Fact records
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Hazard:
    """A determinism hazard: unseeded RNG or unordered iteration."""

    detail: str
    lineno: int
    col: int


@dataclass
class FunctionInfo:
    """Facts about one function, method, or nested closure."""

    name: str
    qual: str  # e.g. "_cmd_reproduce.<locals>.write"
    cls: str | None
    #: Dotted callees and dotted call arguments (a function passed as a
    #: value, e.g. a callback, may be called by the callee), in source order.
    calls: tuple[tuple[str, ...], ...] = ()
    hazards: tuple[Hazard, ...] = ()
    nested: dict[str, str] = field(default_factory=dict)
    local_types: dict[str, tuple[str, ...]] = field(default_factory=dict)
    #: Names of the function's parameters and of its lambdas' arguments.
    params: frozenset[str] = frozenset()


@dataclass
class ClassInfo:
    """Facts about one top-level class."""

    name: str
    bases: tuple[tuple[str, ...], ...] = ()
    methods: dict[str, str] = field(default_factory=dict)  # name -> func qual


@dataclass
class ModuleInfo:
    """The complete per-module fact record."""

    module: str
    path: str
    #: Name bound by an import -> its absolute dotted target, e.g.
    #: ``"TripleSet" -> "repro.kg.triples.TripleSet"``.
    bindings: dict[str, str] = field(default_factory=dict)
    definitions: dict[str, str] = field(default_factory=dict)  # name -> kind
    exports: tuple[str, ...] = ()  # the literal ``__all__``, if any
    functions: dict[str, FunctionInfo] = field(default_factory=dict)
    classes: dict[str, ClassInfo] = field(default_factory=dict)


# ----------------------------------------------------------------------
# Extraction
# ----------------------------------------------------------------------
def _relative_base(module: str, is_package: bool, level: int) -> str:
    """Absolute package a relative import of ``level`` resolves against."""
    parts = module.split(".") if module else []
    anchor = parts if is_package else parts[:-1]
    if level - 1 >= len(anchor):
        return ""
    keep = len(anchor) - (level - 1)
    return ".".join(anchor[:keep])


def _value_type(value: ast.expr) -> tuple[str, ...] | None:
    """Dotted constructor of a value when it is a plain ``Cls(...)`` call."""
    if isinstance(value, ast.IfExp):
        return _value_type(value.body) or _value_type(value.orelse)
    if isinstance(value, ast.Call):
        return dotted_name(value.func)
    return None


class _SetTracker:
    """Function-local inference of names that definitely hold sets."""

    def __init__(self, func: ast.AST) -> None:
        assigned: dict[str, bool] = {}
        for node in ast.walk(func):
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        is_set = self._is_set_expr(node.value, frozenset())
                        previous = assigned.get(target.id)
                        assigned[target.id] = (
                            is_set if previous is None else previous and is_set
                        )
        self.set_names = frozenset(n for n, ok in assigned.items() if ok)

    @staticmethod
    def _is_set_expr(expr: ast.expr, set_names: frozenset[str]) -> bool:
        if isinstance(expr, (ast.Set, ast.SetComp)):
            return True
        if isinstance(expr, ast.Call):
            dotted = dotted_name(expr.func)
            if dotted is not None and dotted[-1] in ("set", "frozenset"):
                return True
        if isinstance(expr, ast.Name) and expr.id in set_names:
            return True
        return False

    def is_set_expr(self, expr: ast.expr) -> bool:
        return self._is_set_expr(expr, self.set_names)


def _arguments(args: ast.arguments) -> list[ast.arg]:
    """Every parameter an ``ast.arguments`` declares."""
    extra = [arg for arg in (args.vararg, args.kwarg) if arg is not None]
    return [*args.posonlyargs, *args.args, *args.kwonlyargs, *extra]


_ORDER_SINKS = frozenset({"list", "tuple", "enumerate", "array", "fromiter", "stack", "concatenate"})


class _FunctionExtractor(ast.NodeVisitor):
    """Collect call and hazard facts for one function body."""

    def __init__(
        self,
        func: ast.FunctionDef | ast.AsyncFunctionDef,
        qual: str,
        cls_name: str | None,
    ) -> None:
        self.func = func
        self.qual = qual
        self.cls_name = cls_name
        self.calls: list[tuple[str, ...]] = []
        self.hazards: list[Hazard] = []
        self.local_types: dict[str, tuple[str, ...]] = {}
        self.nested: dict[str, str] = {}
        self.params: set[str] = {arg.arg for arg in _arguments(func.args)}
        self._sets = _SetTracker(func)

    def run(self) -> FunctionInfo:
        for stmt in self.func.body:
            self.visit(stmt)
        return FunctionInfo(
            name=self.func.name,
            qual=self.qual,
            cls=self.cls_name,
            calls=tuple(self.calls),
            hazards=tuple(self.hazards),
            nested=dict(self.nested),
            local_types=dict(self.local_types),
            params=frozenset(self.params),
        )

    # Nested defs are extracted separately by the module walker; don't
    # descend so their facts aren't double-counted here.
    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self.nested[node.name] = f"{self.qual}.<locals>.{node.name}"

    visit_AsyncFunctionDef = visit_FunctionDef  # type: ignore[assignment]

    def visit_Lambda(self, node: ast.Lambda) -> None:
        self.params.update(arg.arg for arg in _arguments(node.args))
        self.generic_visit(node)

    def _hazard(self, detail: str, node: ast.expr) -> None:
        self.hazards.append(Hazard(detail, node.lineno, node.col_offset + 1))

    def visit_Call(self, node: ast.Call) -> None:
        dotted = dotted_name(node.func)
        # An argument may be a function the callee calls back (a callback).
        values = [*node.args, *(keyword.value for keyword in node.keywords)]
        refs = [
            dotted_name(v.value if isinstance(v, ast.Starred) else v) for v in values
        ]
        self.calls.extend(ref for ref in [dotted, *refs] if ref is not None)
        if dotted is not None:
            tail = dotted[-1]
            # Unseeded RNG: default_rng()/SeedSequence() with no arguments.
            if tail in ("default_rng", "SeedSequence") and not node.args:
                self._hazard(f"{'.'.join(dotted)}() without a seed", node)
            # Ordered materialisation of an unordered set.
            if tail in _ORDER_SINKS and node.args:
                if self._sets.is_set_expr(node.args[0]):
                    self._hazard(
                        f"{tail}() over a set has no deterministic order",
                        node.args[0],
                    )
        self.generic_visit(node)

    def _check_iter(self, iterable: ast.expr) -> None:
        if self._sets.is_set_expr(iterable):
            self._hazard("iterating a set has no deterministic order", iterable)

    def visit_For(self, node: ast.For) -> None:
        self._check_iter(node.iter)
        self.generic_visit(node)

    def visit_ListComp(self, node: ast.ListComp) -> None:
        for generator in node.generators:
            self._check_iter(generator.iter)
        self.generic_visit(node)

    visit_GeneratorExp = visit_ListComp  # type: ignore[assignment]
    visit_DictComp = visit_ListComp  # type: ignore[assignment]

    # Locally-typed instances (``x = Foo()``) for method dispatch.
    def _record_types(self, targets: list[ast.expr], value: ast.expr) -> None:
        for target in targets:
            if isinstance(target, ast.Name):
                inferred = _value_type(value)
                if inferred is not None:
                    self.local_types.setdefault(target.id, inferred)

    def visit_Assign(self, node: ast.Assign) -> None:
        self._record_types(list(node.targets), node.value)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if node.value is not None:
            self._record_types([node.target], node.value)
            self.generic_visit(node)


def build_module_info(module: str, path: str, tree: ast.Module) -> ModuleInfo:
    """Extract the fact record for one parsed module."""
    is_package = Path(path).name == "__init__.py"
    info = ModuleInfo(module=module, path=path)

    def bind_import(node: ast.Import | ast.ImportFrom) -> None:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                target = alias.name if alias.asname else alias.name.split(".")[0]
                info.bindings[bound] = target
            return
        if node.level:
            base = _relative_base(module, is_package, node.level)
            source = f"{base}.{node.module}" if node.module else base
        else:
            source = node.module or ""
        for alias in node.names:
            if alias.name != "*":
                bound = alias.asname or alias.name
                info.bindings[bound] = (
                    f"{source}.{alias.name}" if source else alias.name
                )

    def collect_body(body: list[ast.stmt]) -> None:
        for node in body:
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                bind_import(node)
                for alias in node.names:
                    if alias.name != "*":
                        bound = alias.asname or alias.name.split(".")[0]
                        info.definitions.setdefault(bound, "import")
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                info.definitions[node.name] = "function"
            elif isinstance(node, ast.ClassDef):
                info.definitions[node.name] = "class"
            elif isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        info.definitions.setdefault(target.id, "assign")
                        if target.id == "__all__" and isinstance(
                            node.value, (ast.List, ast.Tuple)
                        ):
                            info.exports = tuple(
                                elt.value
                                for elt in node.value.elts
                                if isinstance(elt, ast.Constant)
                                and isinstance(elt.value, str)
                            )
            elif isinstance(node, ast.AnnAssign) and isinstance(
                node.target, ast.Name
            ):
                info.definitions.setdefault(node.target.id, "assign")
            elif isinstance(node, (ast.If, ast.Try)):
                collect_body(node.body)
                for handler in getattr(node, "handlers", ()):
                    collect_body(handler.body)
                collect_body(node.orelse)
                collect_body(getattr(node, "finalbody", []))

    collect_body(tree.body)

    def find_direct_nested(
        func: ast.AST, name: str
    ) -> ast.FunctionDef | ast.AsyncFunctionDef | None:
        """First def named ``name`` inside ``func``, not crossing other defs."""
        stack: list[ast.AST] = list(func.body)  # type: ignore[attr-defined]
        while stack:
            node = stack.pop(0)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if node.name == name:
                    return node
                continue
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.stmt, ast.excepthandler)):
                    stack.append(child)
        return None

    def extract_function(
        func: ast.FunctionDef | ast.AsyncFunctionDef,
        qual: str,
        cls_name: str | None,
    ) -> None:
        extracted = _FunctionExtractor(func, qual, cls_name).run()
        info.functions[qual] = extracted
        for name, nested_qual in extracted.nested.items():
            nested_def = find_direct_nested(func, name)
            if nested_def is not None:
                extract_function(nested_def, nested_qual, cls_name)

    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            extract_function(node, node.name, None)
        elif isinstance(node, ast.ClassDef):
            cls_info = ClassInfo(name=node.name)
            cls_info.bases = tuple(
                dotted
                for dotted in (dotted_name(base) for base in node.bases)
                if dotted is not None
            )
            for stmt in node.body:
                if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    qual = f"{node.name}.{stmt.name}"
                    cls_info.methods[stmt.name] = qual
                    extract_function(stmt, qual, node.name)
            info.classes[node.name] = cls_info

    return info
