"""CLI for the invariant linter.

Usage::

    python -m repro.analysis paths...
    python -m repro.analysis --check-catalogue [src_root]

Exit status: 0 clean, 1 findings (or catalogue drift), 2 usage/IO error.
"""

from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path
from typing import List, Optional, Sequence

from repro.analysis.engine import analyze_paths, iter_python_files
from repro.analysis.reporters import render_text

_METRIC_LITERAL = re.compile(r'"(ppkws_[a-z0-9_]+)"')


def check_catalogue(
    src_root: str = "src/repro", readme_path: str = "README.md"
) -> List[str]:
    """Both directions of catalogue sync; returns problem descriptions."""
    from repro.obs.catalogue import metric_names, missing_from_text

    problems: List[str] = []
    catalogued = metric_names()

    used = set()
    for file_path in iter_python_files([src_root]):
        if Path(file_path).name == "catalogue.py":
            continue
        text = Path(file_path).read_text(encoding="utf-8")
        used.update(_METRIC_LITERAL.findall(text))
    for name in sorted(used - catalogued):
        problems.append(
            f"metric `{name}` is recorded in {src_root} but missing from "
            f"repro/obs/catalogue.py"
        )
    for name in sorted(catalogued - used):
        problems.append(
            f"catalogue entry `{name}` is no longer used anywhere in "
            f"{src_root} (stale entry)"
        )

    readme = Path(readme_path)
    if readme.exists():
        for name in missing_from_text(readme.read_text(encoding="utf-8")):
            problems.append(
                f"catalogue entry `{name}` is missing from {readme_path}'s "
                f"metric table"
            )
    else:
        problems.append(f"README not found at {readme_path}")
    return problems


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
