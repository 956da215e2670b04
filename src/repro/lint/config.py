"""Configuration: defaults, CLI overrides, and ``[tool.repro-lint]``.

The analyzer reads its project configuration from the ``pyproject.toml``
nearest to the first scanned path (walking up the directory tree), under
the ``[tool.repro-lint]`` table::

    [tool.repro-lint]
    paths = ["src/repro"]      # default scan roots for bare invocations
    exclude = ["*/migrations/*"]  # fnmatch patterns on posix paths

Every registered rule always runs; a single finding is silenced with a
line-scoped ``# lint: disable=RPRxxx`` marker next to its justification.

Relative ``paths`` entries resolve against the directory containing the
``pyproject.toml``, so ``repro-lint`` works from any cwd.
"""

from __future__ import annotations

import tomllib
from dataclasses import dataclass, replace
from pathlib import Path

__all__ = ["LintConfig", "find_pyproject", "load_config"]

_TABLE_KEYS = frozenset({"paths", "exclude"})


@dataclass(frozen=True)
class LintConfig:
    """Resolved analyzer configuration."""

    exclude: tuple[str, ...] = ()
    paths: tuple[str, ...] = ()
    source: str = "<defaults>"

    def merged_with_cli(self, exclude: tuple[str, ...] = ()) -> "LintConfig":
        """CLI ``--exclude`` patterns add to the project's; they never drop one."""
        return replace(self, exclude=self.exclude + tuple(exclude))


def find_pyproject(start: Path) -> Path | None:
    """Nearest ``pyproject.toml`` at or above ``start``."""
    current = start.resolve()
    if current.is_file():
        current = current.parent
    for candidate in (current, *current.parents):
        pyproject = candidate / "pyproject.toml"
        if pyproject.is_file():
            return pyproject
    return None


def load_config(
    pyproject: Path | None = None, start: Path | None = None
) -> LintConfig:
    """Load ``[tool.repro-lint]``; missing file/table yields defaults."""
    if pyproject is None:
        pyproject = find_pyproject(start or Path.cwd())
    if pyproject is None or not Path(pyproject).is_file():
        return LintConfig()
    pyproject = Path(pyproject)
    data = tomllib.loads(pyproject.read_text(encoding="utf-8"))
    table = data.get("tool", {}).get("repro-lint", {})
    unknown = set(table) - _TABLE_KEYS
    if unknown:
        raise ValueError(
            f"unknown [tool.repro-lint] keys in {pyproject}: {sorted(unknown)}"
        )
    root = pyproject.parent
    paths = tuple(
        str(path) if Path(path).is_absolute() else str(root / path)
        for path in table.get("paths", ())
    )
    return LintConfig(
        exclude=tuple(table.get("exclude", ())),
        paths=paths,
        source=str(pyproject),
    )
