"""Rule protocol, module context, and the rule registry.

A rule is a stateless object with a ``rule_id`` and a :meth:`Rule.check`
method that inspects one parsed module and yields findings.  Rules are
registered at import time with :func:`register_rule`; the engine runs
every registered rule over every module it scans.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Type

from .findings import Finding

__all__ = [
    "ModuleContext",
    "Rule",
    "register_rule",
    "all_rules",
    "get_rule",
    "derive_module_name",
    "numpy_aliases",
    "in_scope",
    "call_tail",
    "dotted_name",
    "is_bounded",
    "self_attr",
    "waitable_bindings",
]

_REGISTRY: dict[str, "Rule"] = {}


def derive_module_name(path: Path) -> str:
    """Dotted module name of ``path``, walking up through package dirs.

    ``src/repro/discovery/discover.py`` → ``repro.discovery.discover``
    as long as each parent directory carries an ``__init__.py``.  Files
    outside any package resolve to their bare stem, which keeps scoped
    rules (RPR002–RPR004) inert on standalone scripts.
    """
    path = Path(path)
    parts = [] if path.name == "__init__.py" else [path.stem]
    package = path.parent
    while (package / "__init__.py").exists():
        parts.append(package.name)
        parent = package.parent
        if parent == package:
            break
        package = parent
    return ".".join(reversed(parts)) if parts else path.stem


def numpy_aliases(tree: ast.Module) -> frozenset[str]:
    """Names the module binds to the numpy package (``numpy``, ``np``, ...)."""
    aliases = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "numpy":
                    aliases.add(alias.asname or "numpy")
    return frozenset(aliases)


def in_scope(module: str, scopes: tuple[str, ...]) -> bool:
    """Whether ``module`` is one of ``scopes`` or a submodule of one."""
    return any(
        module == scope or module.startswith(scope + ".") for scope in scopes
    )


def call_tail(node: ast.Call) -> str | None:
    """Last component of the callee's (dotted) name, if it has one."""
    if isinstance(node.func, ast.Attribute):
        return node.func.attr
    if isinstance(node.func, ast.Name):
        return node.func.id
    return None


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


def _is_false(node: ast.expr) -> bool:
    return isinstance(node, ast.Constant) and node.value is False


def is_bounded(method: str, call: ast.Call) -> bool:
    """Does this blocking call carry a timeout or opt out of blocking?

    Used by RPR018, which decides which methods count as blocking.
    """
    for keyword in call.keywords:
        if keyword.arg == "timeout":
            return True
        if keyword.arg in ("block", "blocking") and _is_false(keyword.value):
            return True
    if method in ("wait", "result", "exception", "join"):
        # First positional parameter is the timeout itself.
        return bool(call.args)
    if method in ("get", "acquire") and call.args and _is_false(call.args[0]):
        return True  # get(False)/acquire(False) poll instead of waiting.
    return False


def self_attr(node: ast.expr) -> str | None:
    """``self.<attr>`` -> attribute name, else ``None``."""
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return None


def waitable_bindings(
    root: ast.AST, factories: dict[str, str]
) -> tuple[dict[str, str], dict[str, str]]:
    """``({name: kind}, {self_attr: kind})`` bound anywhere under ``root``.

    A name or ``self.<attr>`` becomes a waitable of ``factories[ctor]``
    when assigned (or ``with``-bound) from a ``ctor(...)`` call, and a
    ``future`` when assigned from an ``x.submit(...)`` call.
    """
    names: dict[str, str] = {}
    attrs: dict[str, str] = {}

    def kind_of(value: ast.expr) -> str | None:
        if not isinstance(value, ast.Call):
            return None
        tail = call_tail(value)
        if tail in factories:
            return factories[tail]
        if tail == "submit" and isinstance(value.func, ast.Attribute):
            return "future"
        return None

    def bind(target: ast.expr, kind: str) -> None:
        if isinstance(target, ast.Name):
            names[target.id] = kind
        else:
            attr = self_attr(target)
            if attr is not None:
                attrs[attr] = kind

    for node in ast.walk(root):
        if isinstance(node, ast.Assign):
            kind = kind_of(node.value)
            if kind is not None:
                for target in node.targets:
                    bind(target, kind)
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            kind = kind_of(node.value)
            if kind is not None:
                bind(node.target, kind)
        elif isinstance(node, ast.withitem):
            kind = kind_of(node.context_expr)
            if kind is not None and node.optional_vars is not None:
                bind(node.optional_vars, kind)
    return names, attrs


@dataclass
class ModuleContext:
    """Everything a rule may inspect about one module."""

    path: str
    module: str
    source: str
    tree: ast.Module

    @classmethod
    def from_source(
        cls, source: str, path: str = "<string>", module: str | None = None
    ) -> "ModuleContext":
        if module is None:
            module = (
                derive_module_name(Path(path)) if path != "<string>" else "<module>"
            )
        return cls(path=path, module=module, source=source, tree=ast.parse(source))

    @classmethod
    def from_path(cls, path: Path, module: str | None = None) -> "ModuleContext":
        return cls.from_source(
            Path(path).read_text(encoding="utf-8"), path=str(path), module=module
        )


class Rule:
    """Base class for all lint rules."""

    rule_id: str = "RPR???"
    name: str = ""
    description: str = ""
    #: Why the rule exists — one short paragraph for ``--explain-all``.
    rationale: str = ""
    #: A minimal violating snippet for the generated reference table.
    example: str = ""

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        raise NotImplementedError

    def finding(self, ctx: ModuleContext, node: ast.AST, message: str) -> Finding:
        return Finding(
            rule_id=self.rule_id,
            path=ctx.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0) + 1,
            message=message,
        )


def register_rule(cls: Type[Rule]) -> Type[Rule]:
    """Class decorator adding a rule instance to the registry."""
    if cls.rule_id in _REGISTRY:
        raise ValueError(f"rule {cls.rule_id} already registered")
    _REGISTRY[cls.rule_id] = cls()
    return cls


def all_rules() -> list[Rule]:
    """Every registered rule, ordered by id."""
    return [_REGISTRY[rule_id] for rule_id in sorted(_REGISTRY)]


def get_rule(rule_id: str) -> Rule:
    if rule_id not in _REGISTRY:
        raise KeyError(f"unknown rule {rule_id!r}; known: {sorted(_REGISTRY)}")
    return _REGISTRY[rule_id]
