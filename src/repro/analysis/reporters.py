"""The finding reporter: ``path:line:col: RAxxx message`` text."""

from __future__ import annotations

from repro.analysis.engine import AnalysisResult

__all__ = ["render_text"]


def render_text(result: AnalysisResult) -> str:
    """``path:line:col: RAxxx message`` lines plus a summary footer."""
    lines = [finding.render() for finding in result.findings]
    counts = result.counts_by_rule()
    by_rule = ", ".join(f"{rule}={n}" for rule, n in sorted(counts.items()))
    summary = (
        f"{len(result.findings)} finding(s)"
        + (f" [{by_rule}]" if by_rule else "")
        + f", {result.files_checked} file(s) checked"
    )
    for error in result.errors:
        lines.append(f"error: {error}")
    lines.append(summary)
    return "\n".join(lines)
