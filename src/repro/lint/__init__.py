"""Domain-aware static analysis for the repro codebase.

The paper's experimental claims rest on invariants no framework enforces
for us: deterministic sampling (every strategy draws from seeded
``np.random.Generator`` streams) and a correct, lean autodiff tape.  This
package is an AST-based analyzer with a rule registry, inline
``# lint: disable=RPRxxx`` suppressions, and text/JSON reporters —
run as ``python -m repro.lint``, ``repro lint``, or the ``repro-lint``
console script.

The engine makes one serial run in two passes and keeps no state on
disk.  Pass 1 parses each file once, in sorted order, runs the per-file
rules over it and extracts a per-module fact record.  Pass 2 assembles
the records into a whole-program :class:`~repro.lint.callgraph.ProjectIndex`
with a resolved call graph and runs the inter-procedural rules
(RPR010–RPR014) over it, one after another.

Rules
-----

========  ==========================================================
RPR001    no global-RNG calls — require explicit ``np.random.Generator``
RPR002    tape hygiene — inference modules score under ``no_grad``
RPR003    no in-place ``Tensor.data`` mutation outside optim/modules
RPR004    backward-closure completeness (``_unbroadcast`` / guards)
RPR005    ``__all__`` ↔ public-def consistency
RPR006    float64 dtype hygiene, mutable defaults, bare ``except``
RPR007    resilience — no swallowed broad excepts; atomic binary writes
RPR008    sparse-grad safety — dense ``.grad`` reads in kge/autograd
          must handle ``SparseGrad``, densify, or ``flush()`` first
RPR009    observability — no raw ``time.*`` clocks in
          kge/discovery/experiments (use ``repro.obs.span``);
          ``summary()``-bearing result classes speak ``Reportable``
RPR010    determinism taint — unseeded RNG / unordered iteration
          reachable from the pipeline entry points (whole-program)
RPR011    concurrency safety — shared state mutated without the
          owning lock in thread-facing code (whole-program)
RPR012    Reportable drift — ``summary()`` keys off the canonical
          ``*_seconds``/``*_count`` vocabulary (whole-program)
RPR013    export integrity — unresolved project imports, broken
          ``__all__`` re-export chains, shadowed bindings (whole-program)
RPR014    exception contracts — broad excepts that swallow typed
          project errors raised in the try body (whole-program)
RPR016    unbounded waits — blocking primitives in
          ``repro.experiments`` (``future.result``, ``Queue.get``,
          ``lock.acquire``, ``Process.join``) must carry a timeout so a
          dead counterpart cannot hang the campaign
RPR017    dense materialisation — ``.toarray()``/``.todense()`` and
          square ``(x, x)`` numpy allocations in ``repro.kg``/
          ``repro.discovery`` (outside the backend-internal
          storage/blocked modules) re-introduce the Θ(N²) footprint
          the out-of-core substrate exists to avoid
RPR018    serve handler hygiene — in ``repro.serve``, no unbounded
          blocking waits (``Event``/``Condition``/``Barrier.wait`` and
          the RPR016 primitives need timeouts), no mutation of
          module-global state from handler code, and no hand-rolled
          ``json.dumps`` payloads outside the versioned schema types
========  ==========================================================

The tier-1 test ``tests/lint/test_self_clean.py`` runs the analyzer over
``src/repro`` and fails on any unsuppressed finding, so these invariants
hold on every future change.
"""

from .callgraph import CallGraph, ProjectIndex, node_key, split_node
from .config import LintConfig, find_pyproject, load_config
from .engine import LintEngine, LintRun
from .explain import render_rules_doc
from .findings import PARSE_ERROR_ID, Finding
from .index import ModuleInfo, build_module_info
from .reporters import render_json, render_text
from .rules import (
    ModuleContext,
    ProjectRule,
    Rule,
    all_rules,
    derive_module_name,
    get_rule,
    local_rules,
    numpy_aliases,
    project_rules,
    register_rule,
)
from .suppress import filter_suppressed, suppressed_rule_ids

# Importing the rule modules populates the registry.
from . import (
    rules_api,
    rules_concurrency,
    rules_dense,
    rules_determinism,
    rules_exceptions,
    rules_exports,
    rules_hygiene,
    rules_obs,
    rules_reportable,
    rules_resilience,
    rules_rng,
    rules_serve,
    rules_sparse,
    rules_tape,
    rules_tensor,
    rules_waits,
)

__all__ = [
    "Finding",
    "PARSE_ERROR_ID",
    "Rule",
    "ProjectRule",
    "ModuleContext",
    "ModuleInfo",
    "ProjectIndex",
    "CallGraph",
    "LintRun",
    "register_rule",
    "all_rules",
    "local_rules",
    "project_rules",
    "get_rule",
    "derive_module_name",
    "numpy_aliases",
    "node_key",
    "split_node",
    "build_module_info",
    "LintConfig",
    "find_pyproject",
    "load_config",
    "LintEngine",
    "render_text",
    "render_json",
    "render_rules_doc",
    "filter_suppressed",
    "suppressed_rule_ids",
    "rules_api",
    "rules_concurrency",
    "rules_dense",
    "rules_determinism",
    "rules_exceptions",
    "rules_exports",
    "rules_hygiene",
    "rules_obs",
    "rules_reportable",
    "rules_resilience",
    "rules_rng",
    "rules_serve",
    "rules_sparse",
    "rules_tape",
    "rules_tensor",
    "rules_waits",
]
