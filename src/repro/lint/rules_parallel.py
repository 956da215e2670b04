"""RPR015 — process-pool safety for spawned workers.

The campaign fabric (:mod:`repro.parallel`) runs cells in spawn-based
worker processes: dispatched callables are pickled by reference, every
worker re-imports the defining module from scratch, and nothing of the
parent's module state comes along.  Three classes of mistake survive
review because they work fine in-process and only fail (or silently
diverge) under spawn:

- **unpicklable dispatch** — a lambda or a function defined inside
  another function cannot be pickled by reference, so handing one to
  ``ParallelScheduler`` or ``ProcessPoolExecutor.submit`` raises only at
  dispatch time;
- **unseeded workers** — a worker that neither receives an ``rng``/
  ``seed`` argument nor derives a stream via ``spawn_stream`` /
  ``spawn_seed`` falls back to process-global state, and spawn gives
  every worker a *different* re-import of that state, breaking the
  bit-identical parallel-equals-serial contract;
- **captured module globals** — a module-level ``open(...)`` handle or
  RNG (``default_rng`` / ``random.Random``) read inside a worker is
  re-created per process on re-import: file handles multiply and
  interleave, streams restart and diverge from the serial order.

The rule checks dispatch sites per module: the worker argument of
``ParallelScheduler(...)``, the first argument of ``.submit(...)`` on a
pool bound from ``ProcessPoolExecutor(...)`` in the same scope, and the
``initializer=`` of ``ProcessPoolExecutor(...)``.  Workers whose
definition lives in the same module additionally get the seeding and
capture checks (initializers are exempt from seeding — they run once
per process, before any cell).
"""

from __future__ import annotations

import ast
from typing import Iterator

from .findings import Finding
from .rules import ModuleContext, Rule, call_tail, register_rule

__all__ = ["ProcessPoolSafetyRule"]

#: Callables that ship their first positional argument to spawned workers.
_SCHEDULER_NAMES = frozenset({"ParallelScheduler"})

#: Process-pool constructors whose ``initializer=`` runs in every worker.
_POOL_NAMES = frozenset({"ProcessPoolExecutor"})

#: Calls whose module-level result must not be read inside a worker.
_HAZARD_FACTORIES = {
    "open": "an open file handle",
    "default_rng": "an RNG stream",
    "Random": "an RNG stream",
    "Generator": "an RNG stream",
    "SystemRandom": "an RNG stream",
}

#: Parameter names that mark a worker as receiving its stream explicitly.
_SEED_PARAMS = frozenset({"rng", "seed"})

#: Calls that derive a per-task stream inside the worker body.
_SEED_DERIVERS = frozenset({"spawn_stream", "spawn_seed"})

_FunctionDef = (ast.FunctionDef, ast.AsyncFunctionDef)


def _param_names(func: ast.FunctionDef) -> set[str]:
    args = func.args
    names = {arg.arg for arg in (*args.posonlyargs, *args.args, *args.kwonlyargs)}
    if args.vararg:
        names.add(args.vararg.arg)
    if args.kwarg:
        names.add(args.kwarg.arg)
    return names


def _derives_stream(func: ast.FunctionDef) -> bool:
    for node in ast.walk(func):
        if isinstance(node, ast.Call) and call_tail(node) in _SEED_DERIVERS:
            return True
    return False


@register_rule
class ProcessPoolSafetyRule(Rule):
    rule_id = "RPR015"
    name = "process-pool-safety"
    description = (
        "functions dispatched to spawned worker processes must be "
        "module-level and picklable, re-seed via an rng/seed argument or "
        "spawn_stream/spawn_seed, and not read module-global RNG streams "
        "or open file handles"
    )
    rationale = (
        "Spawn pickles workers by reference and re-imports their module "
        "in every process: lambdas and closures fail to pickle at "
        "dispatch time, unseeded workers fall back to per-process global "
        "state that breaks the parallel-equals-serial bit-identity "
        "contract, and module-global file handles or RNG streams are "
        "silently re-created per worker instead of shared."
    )
    example = (
        "STREAM = np.random.default_rng(7)\n"
        "def cell_worker(context, payload):      # RPR015: no rng/seed\n"
        "    return STREAM.random()              # RPR015: global stream\n"
        "scheduler = ParallelScheduler(lambda c, p, r: p, procs=4)\n"
        "                               # RPR015: lambda is unpicklable\n"
    )

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        module_defs: dict[str, ast.FunctionDef] = {}
        hazard_globals: dict[str, str] = {}
        for stmt in ctx.tree.body:
            if isinstance(stmt, _FunctionDef):
                module_defs[stmt.name] = stmt
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                value = stmt.value
                if not isinstance(value, ast.Call):
                    continue
                tail = call_tail(value)
                if tail not in _HAZARD_FACTORIES:
                    continue
                targets = (
                    stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                )
                for target in targets:
                    if isinstance(target, ast.Name):
                        hazard_globals[target.id] = _HAZARD_FACTORIES[tail]

        findings: list[Finding] = []
        checked_defs: set[tuple[str, str]] = set()

        def check_worker_def(func: ast.FunctionDef, role: str) -> None:
            if (func.name, role) in checked_defs:
                return
            checked_defs.add((func.name, role))
            if role == "worker" and not (
                _param_names(func) & _SEED_PARAMS
            ) and not _derives_stream(func):
                findings.append(
                    self.finding(
                        ctx,
                        func,
                        f"worker '{func.name}' runs in spawned processes but "
                        "neither takes an rng/seed parameter nor derives a "
                        "stream via spawn_stream/spawn_seed",
                    )
                )
            for node in ast.walk(func):
                if (
                    isinstance(node, ast.Name)
                    and isinstance(node.ctx, ast.Load)
                    and node.id in hazard_globals
                ):
                    findings.append(
                        self.finding(
                            ctx,
                            node,
                            f"worker '{func.name}' reads module global "
                            f"'{node.id}' ({hazard_globals[node.id]}); spawn "
                            "re-imports the module, so every worker gets its "
                            "own diverging copy",
                        )
                    )

        def check_dispatch(
            arg: ast.expr, local_callables: set[str], role: str
        ) -> None:
            if isinstance(arg, ast.Lambda):
                findings.append(
                    self.finding(
                        ctx,
                        arg,
                        "lambda dispatched to a spawned process pool cannot "
                        "be pickled by reference; define a module-level "
                        "function",
                    )
                )
                return
            if not isinstance(arg, ast.Name):
                return
            if arg.id in local_callables:
                findings.append(
                    self.finding(
                        ctx,
                        arg,
                        f"'{arg.id}' is defined inside a function; spawned "
                        "workers are pickled by reference and must be "
                        "module-level",
                    )
                )
                return
            if arg.id in module_defs:
                check_worker_def(module_defs[arg.id], role)

        def scan_scope(root: ast.AST, local_callables: set[str]) -> None:
            """Check every dispatch site in ``root`` (one function or the
            module top level), after collecting which locals name process
            pools and which name unpicklable local callables."""
            pool_locals: set[str] = set()
            for node in ast.walk(root):
                if isinstance(node, ast.withitem):
                    expr = node.context_expr
                    if (
                        isinstance(expr, ast.Call)
                        and call_tail(expr) in _POOL_NAMES
                        and isinstance(node.optional_vars, ast.Name)
                    ):
                        pool_locals.add(node.optional_vars.id)
                elif (
                    isinstance(node, ast.Assign)
                    and isinstance(node.value, ast.Call)
                    and call_tail(node.value) in _POOL_NAMES
                ):
                    for target in node.targets:
                        if isinstance(target, ast.Name):
                            pool_locals.add(target.id)
            for node in ast.walk(root):
                if not isinstance(node, ast.Call):
                    continue
                tail = call_tail(node)
                if tail in _SCHEDULER_NAMES and node.args:
                    check_dispatch(node.args[0], local_callables, "worker")
                elif tail in _POOL_NAMES:
                    for keyword in node.keywords:
                        if keyword.arg == "initializer":
                            check_dispatch(
                                keyword.value, local_callables, "initializer"
                            )
                elif (
                    tail == "submit"
                    and isinstance(node.func, ast.Attribute)
                    and isinstance(node.func.value, ast.Name)
                    and node.func.value.id in pool_locals
                    and node.args
                ):
                    check_dispatch(node.args[0], local_callables, "worker")

        def local_callables_of(func: ast.FunctionDef) -> set[str]:
            names: set[str] = set()
            for node in ast.walk(func):
                if node is func:
                    continue
                if isinstance(node, _FunctionDef):
                    names.add(node.name)
                elif isinstance(node, ast.Assign) and isinstance(
                    node.value, ast.Lambda
                ):
                    for target in node.targets:
                        if isinstance(target, ast.Name):
                            names.add(target.id)
            return names

        # Each top-level function (module- or class-body) is one scope;
        # dispatch sites in nested defs see the enclosing function's
        # local callables too, which is exactly the closure hazard.
        scoped_functions: list[ast.FunctionDef] = []
        for stmt in ctx.tree.body:
            if isinstance(stmt, _FunctionDef):
                scoped_functions.append(stmt)
            elif isinstance(stmt, ast.ClassDef):
                scoped_functions.extend(
                    item for item in stmt.body if isinstance(item, _FunctionDef)
                )
            else:
                scan_scope(stmt, set())
        for func in scoped_functions:
            scan_scope(func, local_callables_of(func))

        yield from findings
