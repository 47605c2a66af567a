"""Dynamic private graphs + index persistence + multi-keyword k-nk.

This example exercises the extension features beyond the paper's core:

1. build the public index once and persist it to disk (a production
   deployment indexes the public graph offline),
2. reload the index into a fresh engine (no rebuild),
3. mutate the attached private graph live — new collaborations appear,
   one is retracted — each edit re-attaching an edited copy of the
   private graph, so queries always see a consistent per-user state
   (the paper's stated future work on dynamic graphs),
4. run conjunctive and disjunctive multi-keyword k-nk queries against
   the evolving combined view.

Run:  python examples/dynamic_private_graph.py
"""

from __future__ import annotations

import os
import tempfile
import time

from repro import PPKWS, PublicIndex
from repro.core import DynamicPrivateGraph, load_index, save_index
from repro.datasets import yago_like


def main() -> None:
    dataset = yago_like(num_vertices=2000, num_labels=150,
                        private_vertices=60, seed=314)
    public = dataset.public
    private = dataset.private("user0")

    # --- 1. offline: index the public graph and persist it --------------
    start = time.perf_counter()
    index = PublicIndex.build(public, k=2)
    build_s = time.perf_counter() - start
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "public.idx")
        save_index(index, path)
        size_kb = os.path.getsize(path) / 1024
        print(f"built index in {build_s:.1f}s, persisted {size_kb:.0f} KiB")

        # --- 2. online: reload, no rebuild ------------------------------
        start = time.perf_counter()
        loaded = load_index(public, path)
        print(f"reloaded index in {time.perf_counter() - start:.2f}s")

    engine = PPKWS(public, index=loaded)
    engine.attach("lab", private)
    dyn = DynamicPrivateGraph(engine, "lab")
    source = next(v for v in private.vertices() if isinstance(v, str))

    # --- 3. query, mutate, query again ----------------------------------
    keywords = ["t0", "t1"]
    before = engine.knk_multi("lab", source, keywords, k=5, mode="or")
    print(f"\nbefore mutation: {len(before.answer.matches)} matches for "
          f"{before.answer.keyword!r}: {before.answer.distances()}")

    # A new private collaborator carrying both keywords appears next door.
    dyn.add_edge(source, "lab:new-hire")
    dyn.add_labels("lab:new-hire", {"t0", "t1"})
    after = engine.knk_multi("lab", source, keywords, k=5, mode="and")
    print(f"after adding 'lab:new-hire': conjunctive matches "
          f"{[(m.vertex, m.distance) for m in after.answer.matches[:3]]}")
    assert after.answer.matches[0].vertex == "lab:new-hire"
    assert after.answer.matches[0].distance == 1.0

    # The collaboration is retracted: like every edit, the deletion
    # re-attaches an edited copy of the private graph.
    dyn.remove_edge(source, "lab:new-hire")
    retracted = engine.knk_multi("lab", source, keywords, k=5, mode="and")
    survivors = [m.vertex for m in retracted.answer.matches]
    print(f"after retraction, 'lab:new-hire' reachable: "
          f"{'lab:new-hire' in survivors}")

    # --- 4. disjunction vs conjunction ----------------------------------
    disj = engine.knk_multi("lab", source, keywords, k=8, mode="or")
    conj = engine.knk_multi("lab", source, keywords, k=8, mode="and")
    print(f"\ndisjunctive top-8 distances: {disj.answer.distances()}")
    print(f"conjunctive top-8 distances: {conj.answer.distances()}")
    print("(conjunction is never closer than disjunction at each rank)")


if __name__ == "__main__":
    main()
