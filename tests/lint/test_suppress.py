"""Inline ``# lint: disable=...`` suppression semantics."""

from __future__ import annotations

from pathlib import Path

from repro.lint import Finding, LintEngine, filter_suppressed, suppressed_rule_ids

FIXTURES = Path(__file__).parent / "fixtures"


def _finding(line: int, rule_id: str = "RPR001") -> Finding:
    return Finding(rule_id=rule_id, path="f.py", line=line, col=1, message="m")


def test_marker_parsing():
    source = "x = 1  # lint: disable=RPR001, RPR002\n# lint: disable=all\ny = 2\n"
    assert suppressed_rule_ids(source) == {
        1: frozenset({"RPR001", "RPR002"}),
        2: frozenset({"all"}),
    }


def test_inline_and_preceding_comment_markers_suppress():
    source = (
        "a = 1  # lint: disable=RPR001\n"
        "# lint: disable=RPR001\n"
        "b = 1\n"
        "c = 1\n"
    )
    kept = filter_suppressed([_finding(1), _finding(3), _finding(4)], source)
    assert [finding.line for finding in kept] == [4]


def test_marker_on_preceding_code_line_does_not_leak():
    source = "a = 1  # lint: disable=RPR001\nb = 2\n"
    kept = filter_suppressed([_finding(2)], source)
    assert [finding.line for finding in kept] == [2]


def test_wrong_rule_id_does_not_suppress():
    source = "a = 1  # lint: disable=RPR002\n"
    assert filter_suppressed([_finding(1)], source) == [_finding(1)]


def test_all_wildcard_suppresses_every_rule():
    source = "a = 1  # lint: disable=all\n"
    assert filter_suppressed([_finding(1, "RPR018")], source) == []


def test_suppressed_fixture_end_to_end():
    findings = LintEngine().lint_file(FIXTURES / "suppressed.py")
    assert len(findings) == 1
    assert findings[0].rule_id == "RPR001"
    # Only the final, unexcused line survives.
    assert findings[0].line == 9
