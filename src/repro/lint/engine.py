"""The analysis engine.

One run is serial, makes one pass and keeps no state on disk: it reads
and parses every file once, in sorted order, runs every rule over the
module, and applies inline suppressions.  The merged findings are
sorted, so a run over the same tree always returns the same list.
"""

from __future__ import annotations

from dataclasses import dataclass
from fnmatch import fnmatch
from pathlib import Path

from .config import LintConfig
from .findings import PARSE_ERROR_ID, Finding
from .rules import ModuleContext, all_rules
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
        self.rules = all_rules()

    # ------------------------------------------------------------------
    # Single-module entry points
    # ------------------------------------------------------------------
    def lint_source(
        self, source: str, path: str = "<string>", module: str | None = None
    ) -> list[Finding]:
        """Analyse one module given as text."""
        try:
            ctx = ModuleContext.from_source(source, path=path, module=module)
        except SyntaxError as error:
            return [_syntax_error(path, error)]
        findings = [finding for rule in self.rules for finding in rule.check(ctx)]
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
        """Analyse every file under ``paths``."""
        files = self.collect_files(paths)
        findings = [finding for file in files for finding in self.lint_file(file)]
        return LintRun(findings=sorted(findings, key=Finding.sort_key), files=files)
