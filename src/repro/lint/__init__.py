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
with a resolved call graph and runs the one whole-program rule, RPR010,
over it.

Rules
-----

========  ==========================================================
RPR001    no global-RNG calls — require explicit ``np.random.Generator``
RPR002    tape hygiene — inference modules score under ``no_grad``
RPR003    no in-place ``Tensor.data`` mutation outside optim/modules
RPR004    backward-closure completeness (``_unbroadcast`` / guards)
RPR010    determinism taint — unseeded RNG / unordered iteration
          reachable from the pipeline entry points (whole-program)
RPR018    bounded waits — in ``repro.serve``, ``Event``/``Condition``/
          ``Barrier.wait``, ``future.result``, ``Queue.get``,
          ``lock.acquire`` and ``join`` need timeouts
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
from . import rules_determinism, rules_rng, rules_serve, rules_tape, rules_tensor

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
    "rules_determinism",
    "rules_rng",
    "rules_serve",
    "rules_tape",
    "rules_tensor",
]
