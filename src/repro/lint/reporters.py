"""Finding reporters: compiler-style text and JSON."""

from __future__ import annotations

import json

from .findings import Finding

__all__ = ["render_text", "render_json"]


def render_text(findings: list[Finding], checked_files: int | None = None) -> str:
    """Compiler-style ``path:line:col: RPRxxx message`` lines + summary."""
    lines = [finding.render() for finding in findings]
    affected = len({finding.path for finding in findings})
    summary = f"{len(findings)} finding{'s' if len(findings) != 1 else ''}"
    if findings:
        summary += f" in {affected} file{'s' if affected != 1 else ''}"
    if checked_files is not None:
        summary += f" ({checked_files} files checked)"
    lines.append(summary)
    return "\n".join(lines)


def render_json(findings: list[Finding], checked_files: int | None = None) -> str:
    payload: dict[str, object] = {
        "count": len(findings),
        "findings": [finding.to_dict() for finding in findings],
    }
    if checked_files is not None:
        payload["checked_files"] = checked_files
    return json.dumps(payload, indent=2, sort_keys=True)
