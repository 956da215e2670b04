"""RPR012 — Reportable/API drift across all result classes at once.

Every ``summary()`` payload in the project speaks one vocabulary:
durations end in ``_seconds``, tallies end in ``_count``.  RPR009
enforces the *protocol* per class; this rule checks the *keys* globally
— off-vocabulary suffixes (``_time``, ``_ms``, ``_cnt``, ``num_*``) and
cross-class drift where one result class says ``facts`` while another
says ``facts_count`` for the same quantity.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator

from .findings import Finding
from .rules import ProjectRule, in_scope, register_rule

if TYPE_CHECKING:
    from .callgraph import CallGraph, ProjectIndex

__all__ = ["ReportableDriftRule"]

_SCOPES = (
    "repro.kge",
    "repro.discovery",
    "repro.experiments",
    "repro.resilience",
    "repro.obs",
    "repro.serve",
    "repro.api",
)

#: Off-vocabulary suffix → the canonical one.
_BAD_SUFFIXES = {
    "_sec": "_seconds",
    "_secs": "_seconds",
    "_time": "_seconds",
    "_times": "_seconds",
    "_duration": "_seconds",
    "_ms": "_seconds",
    "_millis": "_seconds",
    "_cnt": "_count",
    "_num": "_count",
    "_tally": "_count",
}

_CANONICAL_SUFFIXES = ("_seconds", "_count")


@register_rule
class ReportableDriftRule(ProjectRule):
    rule_id = "RPR012"
    name = "reportable-drift"
    description = (
        "summary() keys off the canonical *_seconds/*_count vocabulary, "
        "checked across every result class at once"
    )
    rationale = (
        "Campaign tooling joins summaries from training, discovery, "
        "ranking, and resilience into one table; a class that reports "
        "'elapsed_ms' next to one reporting 'elapsed_seconds', or bare "
        "'facts' next to 'facts_count', silently breaks those joins.  "
        "Consistency is a property of the whole result-class population, "
        "so the check needs the project index, not one file."
    )
    example = (
        "class Result:\n"
        "    def summary(self):\n"
        "        return {'elapsed_ms': self.ms,   # RPR012: use *_seconds\n"
        "                'facts': self.n}         # RPR012 if a sibling\n"
        "                                         # class says facts_count\n"
    )

    def check_project(
        self, index: "ProjectIndex", graph: "CallGraph"
    ) -> Iterator[Finding]:
        population = []  # (module, path, cls_name, key, line, col)
        for module in sorted(index.modules):
            if not in_scope(module, _SCOPES):
                continue
            info = index.modules[module]
            for cls_name in sorted(info.classes):
                for key, line, col in info.classes[cls_name].summary_keys:
                    population.append(
                        (module, info.path, cls_name, key, line, col)
                    )

        # The canonical spelling each suffixed key establishes project-wide.
        canonical: dict[str, tuple[str, str]] = {}
        for _module, _path, cls_name, key, _line, _col in population:
            base = key.rsplit(".", 1)[-1]
            for suffix in _CANONICAL_SUFFIXES:
                if base.endswith(suffix):
                    stem = base[: -len(suffix)]
                    canonical.setdefault(stem, (base, cls_name))

        for _module, path, cls_name, key, line, col in population:
            base = key.rsplit(".", 1)[-1]
            flagged = False
            for suffix, replacement in _BAD_SUFFIXES.items():
                if base.endswith(suffix):
                    want = base[: -len(suffix)] + replacement
                    yield self.project_finding(
                        path,
                        line,
                        col,
                        f"summary key '{key}' of '{cls_name}' is off the "
                        f"canonical vocabulary; use '{want}'",
                    )
                    flagged = True
                    break
            if flagged:
                continue
            if base.startswith("num_"):
                yield self.project_finding(
                    path,
                    line,
                    col,
                    f"summary key '{key}' of '{cls_name}' is off the "
                    f"canonical vocabulary; use '{base[4:]}_count'",
                )
                continue
            if not base.endswith(_CANONICAL_SUFFIXES) and base in canonical:
                spelled, owner = canonical[base]
                if owner != cls_name:
                    yield self.project_finding(
                        path,
                        line,
                        col,
                        f"summary key '{key}' of '{cls_name}' drifts from "
                        f"'{spelled}' established by '{owner}'",
                    )
