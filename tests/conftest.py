"""Shared fixtures: the paper's running example and small random graphs."""

from __future__ import annotations

import hashlib
import importlib.util
import os
import random
import struct
import sys

import pytest

from repro import obs
from repro.graph import LabeledGraph, freeze


@pytest.fixture
def installed_registry():
    """A fresh metrics registry installed process-wide for one test.

    Every layer records into :func:`repro.obs.installed`, so this is how
    a test reads the metrics of the code it drives.
    """
    registry = obs.MetricsRegistry()
    previous = obs.install(registry)
    try:
        yield registry
    finally:
        if previous is None:
            obs.uninstall()
        else:
            obs.install(previous)


@pytest.fixture(scope="session")
def paper_views():
    """``scripts/paper_views.py``, imported once per test session."""
    script = os.path.join(os.path.dirname(__file__), os.pardir, "scripts", "paper_views.py")
    spec = importlib.util.spec_from_file_location("paper_views", script)
    module = importlib.util.module_from_spec(spec)
    # Dataclasses resolve their string annotations through sys.modules.
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    yield module
    del sys.modules[spec.name]


@pytest.fixture
def triangle_graph() -> LabeledGraph:
    """Three labeled vertices in a triangle with mixed weights."""
    g = LabeledGraph("triangle")
    g.add_vertex("a", {"red"})
    g.add_vertex("b", {"green"})
    g.add_vertex("c", {"blue", "red"})
    g.add_edge("a", "b", 1.0)
    g.add_edge("b", "c", 2.0)
    g.add_edge("a", "c", 4.0)
    return g


@pytest.fixture
def paper_public_graph() -> LabeledGraph:
    """The public graph fragment of the paper's Fig. 4 (unit weights).

    Vertices/edges follow the figure's PADS/ADS tables (Tab. II/III):
    v0-p4-v13 chain, the v1/p1/p2 cluster, the v4/v9 area and the
    p5/p6/p7/v7/v16 fringe.
    """
    g = LabeledGraph("fig4")
    labels = {
        "v0": {"a", "b", "f"},
        "p4": {"e"},
        "v13": {"f"},
        "v1": {"f", "g"},
        "p1": {"e"},
        "p2": {"g"},
        "v4": {"c", "e"},
        "v9": {"a"},
        "p6": {"g"},
        "v16": {"a", "e"},
        "v7": {"e", "f"},
        "p5": {"f"},
        "p7": {"f", "d"},
    }
    for v, ls in labels.items():
        g.add_vertex(v, ls)
    edges = [
        ("v0", "p4"),
        ("p4", "v13"),
        ("v13", "v1"),
        ("v13", "v4"),
        ("v1", "p1"),
        ("v1", "p2"),
        ("p2", "v13"),
        ("v4", "v9"),
        ("v4", "p6"),
        ("v9", "v16"),
        ("v16", "v7"),
        ("v7", "p7"),
        ("v7", "p6"),
        ("p5", "v16"),
    ]
    for u, v in edges:
        g.add_edge(u, v)
    return g


@pytest.fixture
def small_public_private():
    """A compact public/private pair with interesting portal structure.

    Public: an 8-cycle with chords, integer vertices 0..7.
    Private: strings 'x1'..'x4' plus portals 2 and 5.
    """
    pub = LabeledGraph("pub")
    for v in range(8):
        pub.add_vertex(v)
    cycle = [(i, (i + 1) % 8) for i in range(8)]
    for u, v in cycle:
        pub.add_edge(u, v)
    pub.add_edge(0, 4)
    pub.add_labels(0, {"db"})
    pub.add_labels(3, {"ai"})
    pub.add_labels(6, {"cv"})
    pub.add_labels(5, {"ml"})

    priv = LabeledGraph("priv")
    priv.add_vertex(2)  # portal
    priv.add_vertex(5)  # portal
    priv.add_vertex("x1", {"db"})
    priv.add_vertex("x2", {"ai"})
    priv.add_vertex("x3", {"cv"})
    priv.add_vertex("x4")
    priv.add_edge(2, "x1")
    priv.add_edge("x1", "x2")
    priv.add_edge("x2", "x4")
    priv.add_edge("x4", 5)
    priv.add_edge("x3", 5)
    return pub, priv


#: The two ways a test hands its public graph to the engine: ``False``
#: passes the :class:`LabeledGraph` (the engine freezes it), ``True``
#: passes ``freeze(graph)``.  Both must serve the same answers.
PREFROZEN = (False, True)


def handed(graph, prefrozen: bool):
    """``graph`` as the ``prefrozen`` route hands it to the engine."""
    return freeze(graph) if prefrozen else graph


def random_connected_graph(
    n: int, extra_edges: int, seed: int, labels=("a", "b", "c")
) -> LabeledGraph:
    """Random tree plus chords: connected, deterministic per seed."""
    rng = random.Random(seed)
    g = LabeledGraph(f"rand{seed}")
    g.add_vertex(0)
    for v in range(1, n):
        g.add_edge(v, rng.randrange(v), rng.choice([1.0, 1.0, 2.0, 3.0]))
    for _ in range(extra_edges):
        u, v = rng.sample(range(n), 2)
        if not g.has_edge(u, v):
            g.add_edge(u, v, rng.choice([1.0, 2.0]))
    for v in range(n):
        if rng.random() < 0.6:
            g.add_labels(v, rng.sample(labels, rng.randint(1, len(labels))))
    return g


class Twin:
    """A vertex type whose instances ``2i`` and ``2i + 1`` share a repr."""

    __slots__ = ("i",)

    def __init__(self, i: int) -> None:
        self.i = i

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Twin) and other.i == self.i

    def __hash__(self) -> int:
        return hash(self.i)

    def __repr__(self) -> str:
        return f"Twin({self.i // 2})"


# ----------------------------------------------------------------------
# the binary index file, taken apart and put back by hand
# ----------------------------------------------------------------------
# Deliberately *not* imported from ``repro.core.persist``: the corruption
# suites craft damaged files behind a valid checksum, and an accidental
# change of the on-disk layout should fail them.
INDEX_SECTIONS = (
    "meta",
    "pagerank.ids", "pagerank.scores",
    "pads.owners", "pads.indptr", "pads.centers", "pads.dists",
    "kpads.indptr", "kpads.centers", "kpads.dists", "kpads.witnesses",
    "cand.indptr", "cand.dists", "cand.vertices",
)
INDEX_TRAILER_BYTES = 32


def index_section_bounds(raw: bytes) -> list:
    """Byte offsets where the header, each section and the trailer start."""
    count = struct.unpack_from("<I", raw, 12)[0]
    lengths = struct.unpack_from(f"<{count}Q", raw, 16)
    bounds = [0, 16 + 8 * count]
    for length in lengths:
        bounds.append(bounds[-1] + length)
    assert bounds[-1] == len(raw) - INDEX_TRAILER_BYTES
    return bounds


def split_index_file(raw: bytes) -> dict:
    """``{section name: bytes}`` of a well-formed index file."""
    bounds = index_section_bounds(raw)[1:]
    assert len(bounds) == len(INDEX_SECTIONS) + 1
    return {
        name: raw[a:b]
        for name, a, b in zip(INDEX_SECTIONS, bounds, bounds[1:])
    }


def join_index_file(sections, version=3, count=None, lengths=None) -> bytes:
    """An index file over ``sections`` with a *correct* checksum.

    ``version`` / ``count`` / ``lengths`` override what the header says,
    so a test can put any inconsistency behind a valid trailer.
    """
    blobs = list(sections.values()) if isinstance(sections, dict) else list(sections)
    lengths = list(lengths) if lengths is not None else [len(b) for b in blobs]
    body = (
        b"PPKWSIDX"
        + struct.pack("<II", version, len(blobs) if count is None else count)
        + struct.pack(f"<{len(lengths)}Q", *lengths)
        + b"".join(blobs)
    )
    return body + hashlib.sha256(body).digest()
