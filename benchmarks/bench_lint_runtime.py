"""Analyzer runtime guard — a cold serial scan of the source tree.

The self-clean test in tier-1 runs the analyzer over ``src/repro`` on
every pytest invocation, so the scan has to stay interactive.  The
engine has one mode: a serial one-pass run with no on-disk state, so
every scan is cold (parse every file once and run every rule over it).  The scan must stay under 10 s and, since tier-1
keeps the tree clean, return no findings.
"""

from __future__ import annotations

import json
import os
import platform
import time
from pathlib import Path

from common import RESULTS_DIR, save_and_print

from repro.experiments import format_table
from repro.lint import LintEngine, load_config

REPO_ROOT = Path(__file__).resolve().parents[1]


def test_lint_cold_scan_runtime(benchmark):
    config = load_config(pyproject=REPO_ROOT / "pyproject.toml")
    paths = list(config.paths)

    def scan():
        return LintEngine(config).run(paths)

    start = time.perf_counter()
    run = scan()
    cold = time.perf_counter() - start
    assert run.findings == []

    benchmark.pedantic(scan, rounds=3, iterations=1)

    table = format_table(
        [{"mode": "cold serial", "seconds": round(cold, 3)}],
        title="repro.lint — one-pass scan runtime (%d files)" % len(run.files),
    )
    save_and_print("lint_runtime", table)

    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    payload = {
        "files": len(run.files),
        "findings": len(run.findings),
        "cold_seconds": cold,
        "cold_budget_seconds": 10.0,
        "host_cpus": os.cpu_count() or 1,
        "python": platform.python_version(),
    }
    (RESULTS_DIR / "BENCH_lint.json").write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )

    assert cold < 10.0
