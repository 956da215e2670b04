"""The two-pass analysis engine.

One run is serial and keeps no state on disk.  Pass 1 reads and parses
every file once, in sorted order: it runs the *local* rules, applies
inline suppressions, and extracts the module's fact record
(:mod:`repro.lint.index`).  Pass 2 assembles the records into a
:class:`~repro.lint.callgraph.ProjectIndex`, resolves the call graph
once, and runs the *project* rules one after another over it.  The
merged findings are sorted, so a run over the same tree always returns
the same list.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from fnmatch import fnmatch
from pathlib import Path

from .callgraph import CallGraph, ProjectIndex
from .config import LintConfig
from .findings import PARSE_ERROR_ID, Finding
from .index import ModuleInfo, build_module_info
from .rules import ModuleContext, derive_module_name, local_rules, project_rules
from .suppress import filter_suppressed

__all__ = ["LintEngine", "LintRun"]


@dataclass
class LintRun:
    """Everything one :meth:`LintEngine.run` invocation produced."""

    findings: list[Finding]
    files: list[Path]


def _syntax_error(path: str, error: SyntaxError) -> Finding:
    return Finding(
        rule_id=PARSE_ERROR_ID,
        path=path,
        line=error.lineno or 1,
        col=error.offset or 1,
        message=f"syntax error: {error.msg}",
    )


class LintEngine:
    """Run every registered rule over sources, files, or directory trees."""

    def __init__(self, config: LintConfig | None = None) -> None:
        self.config = config or LintConfig()
        self.local_rules = local_rules()
        self.project_rules = project_rules()

    # ------------------------------------------------------------------
    # Single-module entry points
    # ------------------------------------------------------------------
    def lint_source(
        self, source: str, path: str = "<string>", module: str | None = None
    ) -> list[Finding]:
        """Analyse one module given as text (both passes, singleton index)."""
        try:
            ctx = ModuleContext.from_source(source, path=path, module=module)
        except SyntaxError as error:
            return [_syntax_error(path, error)]
        findings = [
            finding for rule in self.local_rules for finding in rule.check(ctx)
        ]
        if self.project_rules:
            info = build_module_info(ctx.module, path, ctx.tree)
            index = ProjectIndex({info.module: info})
            graph = CallGraph(index)
            for rule in self.project_rules:
                findings.extend(rule.check_project(index, graph))
        return sorted(filter_suppressed(findings, source), key=Finding.sort_key)

    def lint_file(self, path: Path | str, module: str | None = None) -> list[Finding]:
        path = Path(path)
        return self.lint_source(
            path.read_text(encoding="utf-8"), path=str(path), module=module
        )

    # ------------------------------------------------------------------
    # Tree walking
    # ------------------------------------------------------------------
    def collect_files(self, paths: list[Path | str]) -> list[Path]:
        """Expand files/directories into a sorted, de-duplicated file list."""
        files: list[Path] = []
        for entry in paths:
            entry = Path(entry)
            if entry.is_dir():
                files.extend(sorted(entry.rglob("*.py")))
            elif entry.suffix == ".py":
                files.append(entry)
            else:
                raise FileNotFoundError(f"not a python file or directory: {entry}")
        unique = sorted(set(files))
        return [file for file in unique if not self._excluded(file)]

    def _excluded(self, path: Path) -> bool:
        posix = path.as_posix()
        return any(fnmatch(posix, pattern) for pattern in self.config.exclude)

    # ------------------------------------------------------------------
    # Full runs
    # ------------------------------------------------------------------
    def run(self, paths: list[Path | str]) -> LintRun:
        """Two-pass analysis of every file under ``paths``."""
        files = self.collect_files(paths)
        findings: list[Finding] = []
        sources: dict[str, str] = {}
        modules: dict[str, ModuleInfo] = {}

        # Pass 1: parse each file once, run the local rules over it.
        for file in files:
            path = str(file)
            source = file.read_bytes().decode("utf-8")
            sources[path] = source
            try:
                tree = ast.parse(source)
            except SyntaxError as error:
                findings.append(_syntax_error(path, error))
                continue
            module = derive_module_name(file)
            ctx = ModuleContext(path=path, module=module, source=source, tree=tree)
            local = [
                finding for rule in self.local_rules for finding in rule.check(ctx)
            ]
            findings.extend(filter_suppressed(local, source))
            modules.setdefault(module, build_module_info(module, path, tree))

        # Pass 2: one project index and call graph, every project rule.
        if modules and self.project_rules:
            index = ProjectIndex(modules)
            graph = CallGraph(index)
            by_path: dict[str, list[Finding]] = {}
            for rule in self.project_rules:
                for finding in rule.check_project(index, graph):
                    by_path.setdefault(finding.path, []).append(finding)
            for path, group in by_path.items():
                findings.extend(filter_suppressed(group, sources[path]))

        return LintRun(findings=sorted(findings, key=Finding.sort_key), files=files)

