"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``generate``  write a synthetic dataset (public + private graphs) to disk
``index``     build and persist the public index (PageRank/PADS/KPADS)
``query``     run a Blinks / r-clique / k-nk query over a stored dataset

The CLI works entirely over the text graph format of
:mod:`repro.graph.io` and the flat binary index format of
:mod:`repro.core.persist`, so a dataset generated once can be indexed and
queried across runs.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from typing import Callable, List, Optional

from repro.core.framework import PPKWS, PublicIndex
from repro.core.persist import load_index, save_index
from repro.datasets.synthetic import DATASET_BUILDERS, dataset_by_name
from repro.graph.io import load_graph, mixed_vertex, save_graph

__all__ = ["main", "build_parser"]


def _vertex_type(name: str) -> Callable[[str], object]:
    if name == "int":
        return int
    if name == "str":
        return str
    return mixed_vertex


def _cmd_generate(args: argparse.Namespace) -> int:
    kwargs = {"seed": args.seed}
    if args.vertices is not None:
        if args.dataset == "ppdblp":
            kwargs["num_communities"] = max(1, args.vertices // 40)
            kwargs["community_size"] = 40
        else:
            kwargs["num_vertices"] = args.vertices
    dataset = dataset_by_name(args.dataset, **kwargs)
    os.makedirs(args.out, exist_ok=True)
    public_path = os.path.join(args.out, "public.graph")
    save_graph(dataset.public, public_path)
    print(f"wrote {public_path} ({dataset.public.num_vertices} vertices)")
    for owner in dataset.owners():
        path = os.path.join(args.out, f"private_{owner}.graph")
        save_graph(dataset.private(owner), path)
        print(f"wrote {path} ({dataset.private(owner).num_vertices} vertices)")
    return 0


def _cmd_index(args: argparse.Namespace) -> int:
    graph = load_graph(args.graph, vertex_type=_vertex_type(args.vertex_type))
    start = time.perf_counter()
    index = PublicIndex.build(graph, k=args.k)
    elapsed = time.perf_counter() - start
    save_index(index, args.out)
    print(
        f"built PADS/KPADS over {graph.num_vertices} vertices in {elapsed:.1f}s "
        f"({index.pads.total_entries} sketch entries) -> {args.out}"
    )
    return 0


def _load_engine(args: argparse.Namespace) -> PPKWS:
    public = load_graph(args.public, vertex_type=_vertex_type(args.vertex_type))
    index = load_index(public, args.index) if args.index else None
    engine = PPKWS(public, sketch_k=args.k, index=index)
    private = load_graph(args.private, vertex_type=_vertex_type(args.vertex_type))
    engine.attach("cli", private)
    return engine


def _cmd_query(args: argparse.Namespace) -> int:
    engine = _load_engine(args)
    if args.semantic in ("blinks", "rclique"):
        if not args.keywords:
            print("error: --keywords is required for blinks/rclique",
                  file=sys.stderr)
            return 2
        keywords = args.keywords.split(",")
        run = engine.blinks if args.semantic == "blinks" else engine.rclique
        result = run("cli", keywords, args.tau, k=args.top)
        print(f"{len(result.answers)} public-private answers "
              f"(PEval {result.breakdown.peval*1e3:.1f}ms, "
              f"ARefine {result.breakdown.arefine*1e3:.1f}ms, "
              f"AComplete {result.breakdown.acomplete*1e3:.1f}ms)")
        for ans in result.answers:
            matches = {q: (m.vertex, m.distance) for q, m in ans.matches.items()}
            print(f"  root={ans.root!r} weight={ans.weight():g} {matches}")
    elif args.semantic == "knk":
        if args.source is None or not args.keywords:
            print("error: knk needs --source and --keywords <one keyword>",
                  file=sys.stderr)
            return 2
        source: object = args.source
        private = engine.attachment("cli").private
        if source not in private:
            try:
                source = int(args.source)
            except ValueError:
                pass
        result = engine.knk("cli", source, args.keywords, args.top)
        print(f"{len(result.answer.matches)} matches")
        for m in result.answer.matches:
            print(f"  {m.vertex!r} at distance {m.distance:g}")
    else:  # pragma: no cover - argparse restricts choices
        return 2
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="PPKWS: keyword search on public-private networks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("generate", help="write a synthetic dataset")
    p_gen.add_argument("--dataset", choices=sorted(DATASET_BUILDERS), required=True)
    p_gen.add_argument("--vertices", type=int, default=None)
    p_gen.add_argument("--seed", type=int, default=7)
    p_gen.add_argument("--out", required=True)
    p_gen.set_defaults(func=_cmd_generate)

    p_idx = sub.add_parser("index", help="build and persist the public index")
    p_idx.add_argument("--graph", required=True)
    p_idx.add_argument("--out", required=True)
    p_idx.add_argument("--k", type=int, default=2)
    p_idx.add_argument("--vertex-type", choices=["int", "str", "mixed"], default="mixed")
    p_idx.set_defaults(func=_cmd_index)

    p_q = sub.add_parser("query", help="run a query over stored graphs")
    p_q.add_argument("--public", required=True)
    p_q.add_argument("--private", required=True)
    p_q.add_argument("--index", default=None,
                     help="persisted index (built if omitted)")
    p_q.add_argument("--semantic", choices=["blinks", "rclique", "knk"],
                     required=True)
    p_q.add_argument("--keywords", default=None,
                     help="comma-separated keywords (one keyword for knk)")
    p_q.add_argument("--source", default=None, help="k-nk query vertex")
    p_q.add_argument("--tau", type=float, default=5.0)
    p_q.add_argument("--top", type=int, default=10)
    p_q.add_argument("--k", type=int, default=2, help="sketch parameter")
    p_q.add_argument("--vertex-type", choices=["int", "str", "mixed"], default="mixed")
    p_q.set_defaults(func=_cmd_query)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
