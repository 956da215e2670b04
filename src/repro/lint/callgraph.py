"""Pass 2 substrate: name resolution and the call graph.

:class:`ProjectIndex` holds every :class:`~repro.lint.index.ModuleInfo`
of a run and answers the cross-module question pass 1 cannot: what an
absolute dotted name resolves to, following binding chains through
package ``__init__`` re-exports.

:class:`CallGraph` layers call-edge resolution on top: direct calls,
``self.method()`` dispatch with base-class lookup across modules,
locally-typed instances (``x = Foo(); x.m()``), nested closures,
functions passed as call arguments (a callback is an edge from the
function that hands it over), and methods called on a parameter or a
lambda argument (``x.m()`` reaches every ``m`` of the module's classes).
It provides reachability with witness paths for RPR010.

Both are built once per run from the pass-1 records.
"""

from __future__ import annotations

from .index import FunctionInfo, ModuleInfo

__all__ = ["CallGraph", "ProjectIndex", "node_key", "split_node"]


def node_key(module: str, qual: str) -> str:
    return f"{module}:{qual}"


def split_node(key: str) -> tuple[str, str]:
    module, _, qual = key.partition(":")
    return module, qual


class ProjectIndex:
    """All module fact records of one run, with cross-module resolution."""

    def __init__(self, modules: dict[str, ModuleInfo]) -> None:
        self.modules = dict(modules)
        #: Top-level package names present in the index ("repro", ...).
        self.roots = frozenset(
            name.split(".")[0] for name in self.modules
        )

    # ------------------------------------------------------------------
    # Name resolution
    # ------------------------------------------------------------------
    def resolve(self, target: str) -> tuple[str, str]:
        """Resolve an absolute dotted ``target`` through binding chains.

        Returns ``(kind, qual)`` where kind is one of:

        - ``"module"``  — qual is the module name;
        - ``"symbol"``  — qual is ``"module:Sym"`` or ``"module:Cls.attr"``;
        - ``"missing"`` — the owning module is indexed but the symbol
          chain breaks there;
        - ``"unknown"`` — project-rooted but the module is not indexed
          (partial index, e.g. single-file linting) — never flagged;
        - ``"external"`` — outside the project entirely.
        """
        seen: set[str] = set()
        while True:
            if target in seen:
                return ("missing", target)
            seen.add(target)
            parts = target.split(".")
            matched = None
            for cut in range(len(parts), 0, -1):
                module = ".".join(parts[:cut])
                if module in self.modules:
                    matched = (module, parts[cut:])
                    break
            if matched is None:
                if parts[0] in self.roots:
                    return ("unknown", target)
                return ("external", target)
            module, rest = matched
            if not rest:
                return ("module", module)
            info = self.modules[module]
            head = rest[0]
            if head in info.definitions and info.definitions[head] != "import":
                return ("symbol", node_key(module, ".".join(rest)))
            if head in info.bindings:
                target = ".".join([info.bindings[head]] + rest[1:])
                continue
            return ("missing", target)

    def resolve_class(
        self, module: str, dotted: tuple[str, ...]
    ) -> tuple[str, str] | None:
        """Resolve a dotted class reference *as seen from* ``module``."""
        info = self.modules.get(module)
        if info is None:
            return None
        root = dotted[0]
        if len(dotted) == 1 and root in info.classes:
            return (module, root)
        if root in info.bindings:
            target = ".".join([info.bindings[root]] + list(dotted[1:]))
            kind, qual = self.resolve(target)
            if kind == "symbol":
                owner, sym = split_node(qual)
                if "." not in sym and sym in self.modules[owner].classes:
                    return (owner, sym)
        return None


class CallGraph:
    """Resolved call edges over a :class:`ProjectIndex`."""

    def __init__(self, index: ProjectIndex) -> None:
        self.index = index
        self.nodes: dict[str, tuple[str, FunctionInfo]] = {}
        for module, info in index.modules.items():
            for qual, fn in info.functions.items():
                self.nodes[node_key(module, qual)] = (module, fn)
        self.edges: dict[str, list[str]] = {
            key: [
                target
                for parts in fn.calls
                for target in self.resolve_call(module, fn, parts)
            ]
            for key, (module, fn) in self.nodes.items()
        }

    # ------------------------------------------------------------------
    # Call resolution
    # ------------------------------------------------------------------
    def _method_node(
        self, module: str, cls_name: str, method: str
    ) -> str | None:
        """Look ``method`` up on a class, walking project base classes."""
        seen: set[tuple[str, str]] = set()
        stack = [(module, cls_name)]
        while stack:
            mod, name = stack.pop(0)
            if (mod, name) in seen:
                continue
            seen.add((mod, name))
            info = self.index.modules.get(mod)
            cls = info.classes.get(name) if info else None
            if cls is None:
                continue
            if method in cls.methods:
                return node_key(mod, cls.methods[method])
            for base in cls.bases:
                resolved = self.index.resolve_class(mod, base)
                if resolved is not None:
                    stack.append(resolved)
        return None

    def _node_for_symbol(self, module: str, sym: str) -> str | None:
        info = self.index.modules.get(module)
        if info is None:
            return None
        parts = sym.split(".")
        if len(parts) == 1:
            if sym in info.functions:
                return node_key(module, sym)
            if sym in info.classes:
                return self._method_node(module, sym, "__init__")
            return None
        if parts[0] in info.classes and len(parts) == 2:
            return self._method_node(module, parts[0], parts[1])
        return None

    def resolve_call(
        self, module: str, fn: FunctionInfo, parts: tuple[str, ...]
    ) -> list[str]:
        info = self.index.modules.get(module)
        if info is None or not parts:
            return []
        root = parts[0]
        # self.method() / cls.method()
        if root in ("self", "cls") and fn.cls is not None:
            if len(parts) == 2:
                target = self._method_node(module, fn.cls, parts[1])
                return [target] if target else []
            return []
        # Closures defined in this function.
        if root in fn.nested and len(parts) == 1:
            return [node_key(module, fn.nested[root])]
        # Locally-typed instances: x = Foo(); x.m()
        if root in fn.local_types and len(parts) == 2:
            resolved = self.index.resolve_class(module, fn.local_types[root])
            if resolved is not None:
                target = self._method_node(resolved[0], resolved[1], parts[1])
                return [target] if target else []
            return []
        # Parameters and lambda arguments: x.m() may be any same-named
        # method of a class this module defines.
        if root in fn.params and len(parts) == 2:
            return [
                node_key(module, cls.methods[parts[1]])
                for cls in info.classes.values()
                if parts[1] in cls.methods
            ]
        # Names defined in this module.
        if root in info.definitions and info.definitions[root] != "import":
            target = self._node_for_symbol(module, ".".join(parts))
            return [target] if target else []
        # Imported names — follow the binding chain.
        if root in info.bindings:
            absolute = ".".join([info.bindings[root]] + list(parts[1:]))
            kind, qual = self.index.resolve(absolute)
            if kind == "symbol":
                owner, sym = split_node(qual)
                target = self._node_for_symbol(owner, sym)
                return [target] if target else []
        return []

    # ------------------------------------------------------------------
    # Reachability
    # ------------------------------------------------------------------
    def reachable(self, entries: list[str]) -> dict[str, str | None]:
        """BFS from ``entries``; maps each reached node to its parent."""
        parents: dict[str, str | None] = {}
        queue: list[str] = []
        for entry in entries:
            if entry in self.nodes and entry not in parents:
                parents[entry] = None
                queue.append(entry)
        while queue:
            current = queue.pop(0)
            for target in self.edges.get(current, ()):
                if target not in parents:
                    parents[target] = current
                    queue.append(target)
        return parents

    def witness_path(
        self, parents: dict[str, str | None], key: str
    ) -> list[str]:
        """Entry-to-node chain of function names, for rule messages."""
        chain: list[str] = []
        cursor: str | None = key
        while cursor is not None:
            chain.append(split_node(cursor)[1])
            cursor = parents.get(cursor)
        return list(reversed(chain))
