"""Command-line front-end: ``python -m repro.lint`` / ``repro-lint``.

Exit codes: 0 — clean, 1 — findings reported, 2 — usage or config error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .config import LintConfig, load_config
from .engine import LintEngine
from .explain import render_rules_doc
from .reporters import render_json, render_text
from .rules import all_rules

__all__ = ["build_parser", "main"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-lint",
        description=(
            "Domain-aware static analysis for the repro codebase: RNG "
            "determinism, autodiff-tape hygiene, and bounded waits in the "
            "query server."
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        help="files or directories to analyse "
        "(default: [tool.repro-lint].paths, else the current directory)",
    )
    parser.add_argument(
        "-f", "--format", choices=("text", "json"), default="text",
        help="report format (default: text)",
    )
    parser.add_argument(
        "--exclude", action="append", default=None, metavar="PATTERN",
        help="fnmatch pattern of posix paths to skip (repeatable)",
    )
    parser.add_argument(
        "--config", type=Path, default=None, metavar="PYPROJECT",
        help="explicit pyproject.toml (default: nearest above the scan root)",
    )
    parser.add_argument(
        "--no-config", action="store_true",
        help="ignore [tool.repro-lint] entirely",
    )
    parser.add_argument(
        "--list-rules", action="store_true", help="print the rule table and exit"
    )
    parser.add_argument(
        "--explain-all", action="store_true",
        help="print the full markdown rule reference (docs/lint_rules.md)",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)

    if args.list_rules:
        for rule in all_rules():
            print(f"{rule.rule_id}  {rule.name:32s} {rule.description}")
        return 0
    if args.explain_all:
        print(render_rules_doc(), end="")
        return 0

    try:
        if args.no_config:
            config = LintConfig()
        else:
            start = Path(args.paths[0]) if args.paths else Path.cwd()
            config = load_config(pyproject=args.config, start=start)
        config = config.merged_with_cli(exclude=tuple(args.exclude or ()))
        engine = LintEngine(config)
        run = engine.run(args.paths or list(config.paths) or ["."])
    except (ValueError, FileNotFoundError, OSError) as error:
        print(f"repro-lint: error: {error}", file=sys.stderr)
        return 2

    renderer = render_json if args.format == "json" else render_text
    print(renderer(run.findings, checked_files=len(run.files)))
    return 1 if run.findings else 0
