"""CLI for the invariant linter.

Usage::

    python -m repro.analysis paths...
    python -m repro.analysis --check-catalogue [src_root]

Exit status: 0 clean, 1 findings (or catalogue drift), 2 usage/IO error.
"""

from __future__ import annotations

import argparse
import ast
import re
import sys
from pathlib import Path
from typing import List, Optional, Sequence, Set

from repro.analysis.engine import analyze_paths, iter_python_files
from repro.analysis.reporters import render_text

#: A whole metric name; the pattern's own text does not match it.
_METRIC_NAME = re.compile(r"ppkws_\w+")
#: A row of README's metric table: its first cell is the backticked name.
_README_ROW = re.compile(r"^\| `(ppkws_\w+)` \|", re.MULTILINE)


def _metric_constants(src_root: str) -> Set[str]:
    """Every ``str`` constant under ``src_root`` that is a ``ppkws_*``
    name, however it is quoted (``catalogue.py`` itself aside)."""
    used: Set[str] = set()
    for file_path in iter_python_files([src_root]):
        if Path(file_path).name == "catalogue.py":
            continue
        tree = ast.parse(Path(file_path).read_text(encoding="utf-8"), file_path)
        for node in ast.walk(tree):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                if _METRIC_NAME.fullmatch(node.value):
                    used.add(node.value)
    return used


def check_catalogue(
    src_root: str = "src/repro", readme_path: str = "README.md"
) -> List[str]:
    """The catalogue against the source and against README's metric
    table, both directions each; returns problem descriptions."""
    from repro.obs.catalogue import metric_names

    catalogued = metric_names()
    used = _metric_constants(src_root)
    problems = [
        f"metric `{name}` is recorded in {src_root} but missing from "
        f"repro/obs/catalogue.py"
        for name in sorted(used - catalogued)
    ] + [
        f"catalogue entry `{name}` is no longer used anywhere in "
        f"{src_root} (stale entry)"
        for name in sorted(catalogued - used)
    ]
    readme = Path(readme_path)
    if not readme.exists():
        return problems + [f"README not found at {readme_path}"]
    rows = set(_README_ROW.findall(readme.read_text(encoding="utf-8")))
    return problems + [
        f"catalogue entry `{name}` is missing from {readme_path}'s "
        f"metric table"
        for name in sorted(catalogued - rows)
    ] + [
        f"{readme_path}'s metric table lists `{name}`, which is not in "
        f"repro/obs/catalogue.py (stale row)"
        for name in sorted(rows - catalogued)
    ]


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="AST-based invariant linter for the PPKWS tree.",
    )
    parser.add_argument("paths", nargs="*", help="files or directories to analyze")
    parser.add_argument(
        "--check-catalogue",
        action="store_true",
        help="verify src metrics, repro/obs/catalogue.py and the README "
        "metric table agree",
    )
    args = parser.parse_args(argv)

    if args.check_catalogue:
        src_root = args.paths[0] if args.paths else "src/repro"
        problems = check_catalogue(src_root=src_root)
        for problem in problems:
            print(problem)
        if not problems:
            print("catalogue, source and README metric tables are in sync")
        return 1 if problems else 0

    if not args.paths:
        parser.print_usage(sys.stderr)
        print("error: no paths given", file=sys.stderr)
        return 2

    result = analyze_paths(args.paths)
    print(render_text(result))
    if result.errors:
        return 2
    return 1 if result.findings else 0


if __name__ == "__main__":
    raise SystemExit(main())
