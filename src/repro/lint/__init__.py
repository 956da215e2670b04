"""Domain-aware static analysis for the repro codebase.

The paper's experimental claims rest on invariants no framework enforces
for us: deterministic sampling (every strategy draws from seeded
``np.random.Generator`` streams) and a correct, lean autodiff tape.  This
package is an AST-based analyzer with a rule registry, inline
``# lint: disable=RPRxxx`` suppressions, and text/JSON reporters —
run as ``python -m repro.lint``, ``repro lint``, or the ``repro-lint``
console script.

The engine makes one serial pass and keeps no state on disk: it parses
each file once, in sorted order, and runs every rule over it.

Rules
-----

========  ==========================================================
RPR001    no global-RNG calls — require explicit ``np.random.Generator``
RPR002    tape hygiene — inference modules score under ``no_grad``
RPR003    no in-place ``Tensor.data`` mutation outside optim/modules
RPR004    backward-closure completeness (``_unbroadcast`` / guards)
RPR010    determinism taint — unseeded RNG / unordered iteration
          in any scope of any module
RPR018    bounded waits — in ``repro.serve``, ``Event``/``Condition``/
          ``Barrier.wait``, ``future.result``, ``Queue.get``,
          ``lock.acquire`` and ``join`` need timeouts
========  ==========================================================

The tier-1 test ``tests/lint/test_self_clean.py`` runs the analyzer over
``src/repro`` and fails on any unsuppressed finding, so these invariants
hold on every future change.
"""

from .config import LintConfig, find_pyproject, load_config
from .engine import LintEngine, LintRun
from .explain import render_rules_doc
from .findings import PARSE_ERROR_ID, Finding
from .reporters import render_json, render_text
from .rules import (
    ModuleContext,
    Rule,
    all_rules,
    derive_module_name,
    get_rule,
    numpy_aliases,
    register_rule,
)
from .suppress import filter_suppressed, suppressed_rule_ids

# Importing the rule modules populates the registry.
from . import rules_determinism, rules_rng, rules_serve, rules_tape, rules_tensor

__all__ = [
    "Finding",
    "PARSE_ERROR_ID",
    "Rule",
    "ModuleContext",
    "LintRun",
    "register_rule",
    "all_rules",
    "get_rule",
    "derive_module_name",
    "numpy_aliases",
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
