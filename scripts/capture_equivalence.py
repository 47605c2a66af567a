"""Freeze the engine-equivalence golden file.

Runs the shared workload (``tests/engine_equivalence_data.py``) against
the *current* pipelines and writes the canonicalized results to
``tests/data/engine_equivalence.json``.  The file was captured once,
immediately before the ``repro.core.engine`` refactor, and is the
refactor's bit-identity contract — re-run this script only when the
workload itself changes deliberately (and say so in the PR).

Usage::

    PYTHONPATH=src:. python scripts/capture_equivalence.py
"""

from __future__ import annotations

import json
import os
import sys
from collections import Counter

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir))

from tests.engine_equivalence_data import capture_all  # noqa: E402

OUT = os.path.join(
    os.path.dirname(__file__), os.pardir, "tests", "data",
    "engine_equivalence.json",
)


def main() -> None:
    payload = capture_all()
    os.makedirs(os.path.dirname(OUT), exist_ok=True)
    with open(OUT, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")

    # Coverage summary: the golden file should pin degraded paths too.
    interrupted: Counter = Counter()
    answers = 0
    for per_seed in payload["seeds"].values():
        flat = []
        for name, value in per_seed.items():
            if isinstance(value, dict):  # the nested "ablation" section
                flat.extend(
                    (f"{name}/{inner}", runs)
                    for inner, runs in value.items()
                )
            else:
                flat.append((name, value))
        for semantics, runs in flat:
            for run in runs:
                result = run["result"]
                if result["degraded"]:
                    interrupted[
                        (semantics, result["interrupted_step"])
                    ] += 1
                answers += len(result.get("answers", []) or ()) or bool(
                    result.get("answer", {}).get("matches")
                )
    print(f"wrote {os.path.normpath(OUT)}")
    print(f"non-empty answer payloads: {answers}")
    for (semantics, step), n in sorted(interrupted.items()):
        print(f"degraded {semantics}@{step}: {n}")


if __name__ == "__main__":
    main()
