"""Pass 1 of the whole-program analyzer: per-module fact extraction.

:func:`build_module_info` distils one parsed module into a
:class:`ModuleInfo` — a record of everything the
inter-procedural rules (RPR010–RPR014) need: the import/binding table
with relative imports resolved to absolute dotted targets, the top-level
symbol table and ``__all__``, per-class attribute/lock maps, and
per-function call sites, raise sites, ``try`` shapes, shared-state
mutations (with the ``with``-statement lock context they run under) and
determinism hazards.

The extraction is purely syntactic and local to one module: a
``ModuleInfo`` is a function of the module source alone.  Everything
cross-module (name resolution, the call graph, reachability) lives in
:mod:`repro.lint.callgraph` and is computed once per run from the
per-module records.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

__all__ = [
    "Binding",
    "CallSite",
    "ClassInfo",
    "FunctionInfo",
    "HandlerInfo",
    "Hazard",
    "ModuleInfo",
    "Mutation",
    "RaiseSite",
    "TryInfo",
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

_EXECUTOR_NAMES = frozenset({"ThreadPoolExecutor", "ProcessPoolExecutor"})

#: Method names that mutate their receiver in place.
_MUTATOR_METHODS = frozenset(
    {
        "append", "appendleft", "add", "clear", "discard", "extend",
        "insert", "move_to_end", "pop", "popitem", "popleft", "remove",
        "setdefault", "update",
    }
)

_LOCK_FACTORIES = frozenset({"Lock", "RLock", "Condition", "Semaphore"})


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
class CallSite:
    """One resolved-later call expression: the dotted callee + location."""

    parts: tuple[str, ...]
    lineno: int
    col: int


@dataclass(frozen=True)
class RaiseSite:
    """A ``raise X(...)`` site with the dotted exception name."""

    parts: tuple[str, ...]
    lineno: int
    col: int


@dataclass(frozen=True)
class Hazard:
    """A determinism hazard (RPR010): unseeded RNG or unordered iteration."""

    kind: str  # "unseeded-rng" | "set-iteration"
    detail: str
    lineno: int
    col: int


@dataclass(frozen=True)
class Mutation:
    """A write to shared state: instance attributes or module globals.

    ``scope`` is ``"self"`` (attribute chain rooted at the instance) or
    ``"global"`` (module-level name).  ``path`` is the attribute chain
    (``("stats", "rows_scored")``) or the global name.  ``withs`` holds
    the dotted context expressions of every enclosing ``with`` item, so
    the concurrency rule can decide whether an owning lock was held.
    """

    scope: str
    path: tuple[str, ...]
    lineno: int
    col: int
    withs: tuple[tuple[str, ...], ...]


@dataclass(frozen=True)
class TryInfo:
    """Shape of one ``try`` statement: body calls and handler clauses."""

    calls: tuple[CallSite, ...]
    raises: tuple[RaiseSite, ...]
    handlers: tuple["HandlerInfo", ...]


@dataclass(frozen=True)
class HandlerInfo:
    """One ``except`` clause: caught types, location, re-raise flag."""

    types: tuple[tuple[str, ...], ...]  # empty → bare ``except:``
    lineno: int
    col: int
    reraises: bool


@dataclass
class FunctionInfo:
    """Facts about one function, method, or nested closure."""

    name: str
    qual: str  # e.g. "RankingEngine._iter_row_chunks.<locals>.account"
    cls: str | None
    lineno: int
    col: int
    calls: tuple[CallSite, ...] = ()
    raises: tuple[RaiseSite, ...] = ()
    hazards: tuple[Hazard, ...] = ()
    mutations: tuple[Mutation, ...] = ()
    tries: tuple[TryInfo, ...] = ()
    spawns_pool: bool = False
    submitted: tuple[tuple[str, ...], ...] = ()
    nested: dict[str, str] = field(default_factory=dict)
    local_types: dict[str, tuple[str, ...]] = field(default_factory=dict)


@dataclass
class ClassInfo:
    """Facts about one top-level class."""

    name: str
    lineno: int
    col: int
    bases: tuple[tuple[str, ...], ...] = ()
    methods: dict[str, str] = field(default_factory=dict)  # name -> func qual
    attr_types: dict[str, tuple[str, ...]] = field(default_factory=dict)
    lock_attrs: tuple[str, ...] = ()
    threadlocal_attrs: tuple[str, ...] = ()
    summary_keys: tuple[tuple[str, int, int], ...] = ()


@dataclass
class Binding:
    """One top-level name bound by an import, with its absolute target."""

    name: str
    target: str  # absolute dotted target, e.g. "repro.kg.triples.TripleSet"
    kind: str  # "module" | "symbol"
    lineno: int
    col: int


@dataclass
class ModuleInfo:
    """The complete per-module fact record."""

    module: str
    path: str
    is_package: bool = False
    bindings: dict[str, Binding] = field(default_factory=dict)
    definitions: dict[str, str] = field(default_factory=dict)  # name -> kind
    all_names: tuple[str, ...] | None = None
    all_span: tuple[int, int, int, int] | None = None  # lineno,col,end_l,end_c
    functions: dict[str, FunctionInfo] = field(default_factory=dict)
    classes: dict[str, ClassInfo] = field(default_factory=dict)
    module_locks: tuple[str, ...] = ()
    #: (name, origin, lineno, col) of top-level straight-line bindings, in
    #: source order — the shadow check's input.  ``origin`` is the import
    #: target for imports, ``"<def>"`` for defs/classes, ``"<assign>"``
    #: for assignments.
    toplevel_order: tuple[tuple[str, str, int, int], ...] = ()


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


def _literal_str_elements(node: ast.expr) -> tuple[str, ...] | None:
    if not isinstance(node, (ast.List, ast.Tuple)):
        return None
    names = []
    for element in node.elts:
        if not (isinstance(element, ast.Constant) and isinstance(element.value, str)):
            return None
        names.append(element.value)
    return tuple(names)


def _is_lock_call(value: ast.expr) -> bool:
    if isinstance(value, ast.IfExp):
        return _is_lock_call(value.body) or _is_lock_call(value.orelse)
    if not isinstance(value, ast.Call):
        return False
    dotted = dotted_name(value.func)
    return dotted is not None and dotted[-1] in _LOCK_FACTORIES


def _is_threadlocal_call(value: ast.expr) -> bool:
    if not isinstance(value, ast.Call):
        return False
    dotted = dotted_name(value.func)
    return dotted is not None and dotted[-1] == "local"


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


_ORDER_SINKS = frozenset({"list", "tuple", "enumerate", "array", "fromiter", "stack", "concatenate"})


class _FunctionExtractor(ast.NodeVisitor):
    """Collect call/raise/mutation/hazard facts for one function body."""

    def __init__(
        self,
        func: ast.FunctionDef | ast.AsyncFunctionDef,
        qual: str,
        cls_name: str | None,
        global_names: frozenset[str],
    ) -> None:
        self.func = func
        self.qual = qual
        self.cls_name = cls_name
        self.global_names = global_names
        self.calls: list[CallSite] = []
        self.raises: list[RaiseSite] = []
        self.hazards: list[Hazard] = []
        self.mutations: list[Mutation] = []
        self.tries: list[TryInfo] = []
        self.spawns_pool = False
        self.submitted: list[tuple[str, ...]] = []
        self.local_types: dict[str, tuple[str, ...]] = {}
        self.nested: dict[str, str] = {}
        self._with_stack: list[tuple[str, ...]] = []
        self._declared_globals: set[str] = set()
        self._executor_locals: set[str] = set()
        self._sets = _SetTracker(func)
        self._is_init = func.name in ("__init__", "__new__")

    # -- driving --------------------------------------------------------
    def run(self) -> FunctionInfo:
        for stmt in self.func.body:
            self.visit(stmt)
        return FunctionInfo(
            name=self.func.name,
            qual=self.qual,
            cls=self.cls_name,
            lineno=self.func.lineno,
            col=self.func.col_offset,
            calls=tuple(self.calls),
            raises=tuple(self.raises),
            hazards=tuple(self.hazards),
            mutations=tuple(self.mutations),
            tries=tuple(self.tries),
            spawns_pool=self.spawns_pool,
            submitted=tuple(self.submitted),
            nested=dict(self.nested),
            local_types=dict(self.local_types),
        )

    # Nested defs are extracted separately by the module walker; don't
    # descend so their facts aren't double-counted here.
    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self.nested[node.name] = f"{self.qual}.<locals>.{node.name}"

    visit_AsyncFunctionDef = visit_FunctionDef  # type: ignore[assignment]

    def visit_Lambda(self, node: ast.Lambda) -> None:
        self.generic_visit(node)

    def visit_Global(self, node: ast.Global) -> None:
        self._declared_globals.update(node.names)

    # -- with/lock context ---------------------------------------------
    def visit_With(self, node: ast.With) -> None:
        pushed = 0
        for item in node.items:
            expr = item.context_expr
            call_target = expr.func if isinstance(expr, ast.Call) else expr
            dotted = dotted_name(call_target)
            if dotted is not None:
                if dotted[-1] in _EXECUTOR_NAMES:
                    self.spawns_pool = True
                    if item.optional_vars is not None and isinstance(
                        item.optional_vars, ast.Name
                    ):
                        self._executor_locals.add(item.optional_vars.id)
                self._with_stack.append(dotted)
                pushed += 1
            if isinstance(expr, ast.Call):
                self._record_call(expr)
                for child in ast.iter_child_nodes(expr):
                    self.visit(child)
        for stmt in node.body:
            self.visit(stmt)
        del self._with_stack[len(self._with_stack) - pushed :]

    visit_AsyncWith = visit_With  # type: ignore[assignment]

    # -- try/except ----------------------------------------------------
    def visit_Try(self, node: ast.Try) -> None:
        body_calls: list[CallSite] = []
        body_raises: list[RaiseSite] = []
        mark = len(self.calls)
        raise_mark = len(self.raises)
        for stmt in node.body:
            self.visit(stmt)
        body_calls = self.calls[mark:]
        body_raises = self.raises[raise_mark:]
        handlers = []
        for handler in node.handlers:
            types: tuple[tuple[str, ...], ...] = ()
            if handler.type is not None:
                if isinstance(handler.type, ast.Tuple):
                    types = tuple(
                        d
                        for d in (dotted_name(e) for e in handler.type.elts)
                        if d is not None
                    )
                else:
                    dotted = dotted_name(handler.type)
                    types = (dotted,) if dotted is not None else ()
            reraises = any(
                isinstance(sub, ast.Raise) for sub in ast.walk(handler)
            )
            handlers.append(
                HandlerInfo(
                    types=types,
                    lineno=handler.lineno,
                    col=handler.col_offset + 1,
                    reraises=reraises,
                )
            )
            for stmt in handler.body:
                self.visit(stmt)
        for stmt in node.orelse + node.finalbody:
            self.visit(stmt)
        self.tries.append(
            TryInfo(
                calls=tuple(body_calls),
                raises=tuple(body_raises),
                handlers=tuple(handlers),
            )
        )

    # -- raises --------------------------------------------------------
    def visit_Raise(self, node: ast.Raise) -> None:
        exc = node.exc
        target = exc.func if isinstance(exc, ast.Call) else exc
        if target is not None:
            dotted = dotted_name(target)
            if dotted is not None:
                self.raises.append(
                    RaiseSite(dotted, node.lineno, node.col_offset + 1)
                )
        self.generic_visit(node)

    # -- calls, hazards, pools -----------------------------------------
    def _record_call(self, node: ast.Call) -> None:
        dotted = dotted_name(node.func)
        if dotted is None:
            return
        self.calls.append(CallSite(dotted, node.lineno, node.col_offset + 1))
        tail = dotted[-1]
        if tail in _EXECUTOR_NAMES:
            self.spawns_pool = True
        if tail in ("submit", "map") and len(dotted) >= 2:
            receiver = dotted[0]
            if receiver in self._executor_locals or (
                tail == "submit" and dotted[:-1] == ("self", "_pool")
            ):
                for arg in node.args[:1]:
                    fn = dotted_name(arg)
                    if fn is not None:
                        self.submitted.append(fn)
        if tail == "Thread":
            for keyword in node.keywords:
                if keyword.arg == "target":
                    fn = dotted_name(keyword.value)
                    if fn is not None:
                        self.submitted.append(fn)
                        self.spawns_pool = True
        # Unseeded RNG: default_rng()/SeedSequence() with no arguments.
        if tail in ("default_rng", "SeedSequence") and not node.args:
            self.hazards.append(
                Hazard(
                    "unseeded-rng",
                    f"{'.'.join(dotted)}() without a seed",
                    node.lineno,
                    node.col_offset + 1,
                )
            )
        # Ordered materialisation of an unordered set.
        if tail in _ORDER_SINKS and node.args:
            first = node.args[0]
            if self._sets.is_set_expr(first):
                self.hazards.append(
                    Hazard(
                        "set-iteration",
                        f"{tail}() over a set has no deterministic order",
                        first.lineno,
                        first.col_offset + 1,
                    )
                )
        # Mutating method calls on shared state.
        if tail in _MUTATOR_METHODS and len(dotted) >= 2:
            self._record_mutation_chain(dotted[:-1], node.lineno, node.col_offset + 1)
        if tail == "setattr" and len(dotted) == 1 and node.args:
            obj = dotted_name(node.args[0])
            if obj == ("self",) and not self._is_init:
                self.mutations.append(
                    Mutation(
                        "self", ("*",), node.lineno, node.col_offset + 1,
                        tuple(self._with_stack),
                    )
                )

    def visit_Call(self, node: ast.Call) -> None:
        self._record_call(node)
        self.generic_visit(node)

    def visit_For(self, node: ast.For) -> None:
        if self._sets.is_set_expr(node.iter):
            self.hazards.append(
                Hazard(
                    "set-iteration",
                    "iterating a set has no deterministic order",
                    node.iter.lineno,
                    node.iter.col_offset + 1,
                )
            )
        self.generic_visit(node)

    def visit_comprehension_generators(self, generators) -> None:
        for gen in generators:
            if self._sets.is_set_expr(gen.iter):
                self.hazards.append(
                    Hazard(
                        "set-iteration",
                        "iterating a set has no deterministic order",
                        gen.iter.lineno,
                        gen.iter.col_offset + 1,
                    )
                )

    def visit_ListComp(self, node: ast.ListComp) -> None:
        self.visit_comprehension_generators(node.generators)
        self.generic_visit(node)

    visit_GeneratorExp = visit_ListComp  # type: ignore[assignment]
    visit_DictComp = visit_ListComp  # type: ignore[assignment]

    # Set comprehensions produce sets — iterating a set *into* a set
    # stays unordered-in, unordered-out and is not a hazard.
    def visit_SetComp(self, node: ast.SetComp) -> None:
        self.generic_visit(node)

    # -- mutations ------------------------------------------------------
    def _record_mutation_chain(
        self, chain: tuple[str, ...], lineno: int, col: int
    ) -> None:
        root = chain[0]
        if root in ("self", "cls") and len(chain) >= 2:
            if not self._is_init:
                self.mutations.append(
                    Mutation(
                        "self", chain[1:], lineno, col, tuple(self._with_stack)
                    )
                )
        elif len(chain) >= 1 and root in self._declared_globals | self.global_names:
            self.mutations.append(
                Mutation(
                    "global", chain, lineno, col, tuple(self._with_stack)
                )
            )

    def _record_assignment_target(self, target: ast.expr, lineno: int, col: int) -> None:
        subscripted = False
        while isinstance(target, (ast.Subscript, ast.Starred)):
            subscripted = isinstance(target, ast.Subscript) or subscripted
            target = target.value
        if isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._record_assignment_target(element, lineno, col)
            return
        dotted = dotted_name(target)
        if dotted is None:
            return
        if len(dotted) == 1:
            name = dotted[0]
            # ``name = ...`` rebinds a local unless declared global, but
            # ``name[k] = ...`` mutates whatever module object it names.
            if name in self._declared_globals or (
                subscripted and name in self.global_names
            ):
                self.mutations.append(
                    Mutation("global", dotted, lineno, col, tuple(self._with_stack))
                )
            return
        self._record_mutation_chain(dotted, lineno, col)

    def _record_assign(self, node, targets: list[ast.expr], value) -> None:
        for target in targets:
            self._record_assignment_target(
                target, node.lineno, node.col_offset + 1
            )
            if isinstance(target, ast.Name) and value is not None:
                inferred = _value_type(value)
                if inferred is not None:
                    self.local_types.setdefault(target.id, inferred)

    def visit_Assign(self, node: ast.Assign) -> None:
        self._record_assign(node, list(node.targets), node.value)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._record_assignment_target(node.target, node.lineno, node.col_offset + 1)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if node.value is not None:
            self._record_assign(node, [node.target], node.value)
            self.generic_visit(node)


def _summary_payload_keys(
    func: ast.FunctionDef,
) -> tuple[tuple[str, int, int], ...]:
    """Literal string keys of the dict a ``summary()`` method returns.

    Handles the two idioms used across the codebase: returning a dict
    literal directly (possibly wrapped in ``dict(out)``) and building
    ``out = {...}`` then returning it (or the wrapper).
    """
    named_literals: dict[str, ast.Dict] = {}
    returned: ast.expr | None = None
    for node in ast.walk(func):
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.Dict):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    named_literals.setdefault(target.id, node.value)
        elif isinstance(node, ast.Return) and node.value is not None:
            returned = node.value

    payload: ast.expr | None = returned
    if isinstance(payload, ast.Call) and payload.args:
        callee = dotted_name(payload.func)
        if callee is not None and callee[-1] == "dict":
            payload = payload.args[0]
    if isinstance(payload, ast.Name):
        payload = named_literals.get(payload.id)
    if not isinstance(payload, ast.Dict):
        return ()
    keys = []
    for key in payload.keys:
        if isinstance(key, ast.Constant) and isinstance(key.value, str):
            keys.append((key.value, key.lineno, key.col_offset + 1))
    return tuple(keys)


def build_module_info(module: str, path: str, tree: ast.Module) -> ModuleInfo:
    """Extract the full fact record for one parsed module."""
    from pathlib import Path

    is_package = Path(path).name == "__init__.py"
    info = ModuleInfo(module=module, path=path, is_package=is_package)

    toplevel: list[tuple[str, str, int, int]] = []
    module_lock_names: list[str] = []
    global_names: set[str] = set()

    def bind_import(node: ast.stmt, depth0: bool) -> None:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                target = alias.name if alias.asname else alias.name.split(".")[0]
                info.bindings[bound] = Binding(
                    bound, target, "module", node.lineno, node.col_offset + 1
                )
                if depth0:
                    toplevel.append(
                        (bound, target, node.lineno, node.col_offset + 1)
                    )
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                base = _relative_base(module, is_package, node.level)
                source = f"{base}.{node.module}" if node.module else base
            else:
                source = node.module or ""
            for alias in node.names:
                if alias.name == "*":
                    continue
                bound = alias.asname or alias.name
                target = f"{source}.{alias.name}" if source else alias.name
                info.bindings[bound] = Binding(
                    bound, target, "symbol", node.lineno, node.col_offset + 1
                )
                if depth0:
                    toplevel.append(
                        (bound, target, node.lineno, node.col_offset + 1)
                    )

    def collect_body(body: list[ast.stmt], depth0: bool) -> None:
        for node in body:
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                bind_import(node, depth0)
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    bound = alias.asname or alias.name.split(".")[0]
                    info.definitions.setdefault(bound, "import")
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                info.definitions[node.name] = "function"
                if depth0:
                    toplevel.append(
                        (node.name, "<def>", node.lineno, node.col_offset + 1)
                    )
            elif isinstance(node, ast.ClassDef):
                info.definitions[node.name] = "class"
                if depth0:
                    toplevel.append(
                        (node.name, "<def>", node.lineno, node.col_offset + 1)
                    )
            elif isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        info.definitions.setdefault(target.id, "assign")
                        global_names.add(target.id)
                        if target.id == "__all__" and info.all_names is None:
                            info.all_names = _literal_str_elements(node.value)
                            info.all_span = (
                                node.lineno,
                                node.col_offset,
                                node.end_lineno or node.lineno,
                                node.end_col_offset or 0,
                            )
                        if _is_lock_call(node.value):
                            module_lock_names.append(target.id)
            elif isinstance(node, ast.AnnAssign) and isinstance(
                node.target, ast.Name
            ):
                info.definitions.setdefault(node.target.id, "assign")
                global_names.add(node.target.id)
            elif isinstance(node, (ast.If, ast.Try)):
                collect_body(node.body, depth0=False)
                if isinstance(node, ast.Try):
                    for handler in node.handlers:
                        collect_body(handler.body, depth0=False)
                    collect_body(node.orelse, depth0=False)
                    collect_body(node.finalbody, depth0=False)
                else:
                    collect_body(node.orelse, depth0=False)

    collect_body(tree.body, depth0=True)
    info.module_locks = tuple(module_lock_names)
    info.toplevel_order = tuple(toplevel)
    frozen_globals = frozenset(global_names)

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
        extracted = _FunctionExtractor(func, qual, cls_name, frozen_globals).run()
        info.functions[qual] = extracted
        for name, nested_qual in extracted.nested.items():
            nested_def = find_direct_nested(func, name)
            if nested_def is not None:
                extract_function(nested_def, nested_qual, cls_name)

    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            extract_function(node, node.name, None)
        elif isinstance(node, ast.ClassDef):
            cls_info = ClassInfo(
                name=node.name, lineno=node.lineno, col=node.col_offset + 1
            )
            bases = []
            for base in node.bases:
                dotted = dotted_name(base)
                if dotted is not None:
                    bases.append(dotted)
            cls_info.bases = tuple(bases)
            lock_attrs: list[str] = []
            threadlocal_attrs: list[str] = []
            for stmt in node.body:
                if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    qual = f"{node.name}.{stmt.name}"
                    cls_info.methods[stmt.name] = qual
                    extract_function(stmt, qual, node.name)
                    if stmt.name == "summary":
                        cls_info.summary_keys = _summary_payload_keys(stmt)
                    # Instance attribute types and locks, from any method.
                    for sub in ast.walk(stmt):
                        if not isinstance(sub, ast.Assign):
                            continue
                        for target in sub.targets:
                            dotted = dotted_name(target)
                            if (
                                dotted is not None
                                and len(dotted) == 2
                                and dotted[0] == "self"
                            ):
                                attr = dotted[1]
                                if _is_lock_call(sub.value):
                                    lock_attrs.append(attr)
                                elif _is_threadlocal_call(sub.value):
                                    threadlocal_attrs.append(attr)
                                else:
                                    inferred = _value_type(sub.value)
                                    if inferred is not None:
                                        cls_info.attr_types.setdefault(
                                            attr, inferred
                                        )
            cls_info.lock_attrs = tuple(dict.fromkeys(lock_attrs))
            cls_info.threadlocal_attrs = tuple(dict.fromkeys(threadlocal_attrs))
            info.classes[node.name] = cls_info

    return info
