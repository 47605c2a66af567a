"""Persistence for the public index (PADS / KPADS / PageRank).

The public index is the only expensive artifact in PPKWS — built once
per public graph, shared by every user — so it is kept on disk, in a form
that a restart serves from instead of rebuilding: one flat little-endian
binary layout (format v3), written with the standard library and read as
zero-copy ``numpy`` views of the file::

    "PPKWSIDX" | version u32 | section count u32 | u64 length per section
    meta             JSON: k, kpads_per_center, num_vertices, graph_sha256,
                     "vertices" (id -> vertex), "labels" (id -> keyword)
    pagerank.ids i   pagerank.scores d
    pads.owners i    pads.indptr i     pads.centers i   pads.dists d
    kpads.indptr i   kpads.centers i   kpads.dists d    kpads.witnesses i
    cand.indptr i    cand.dists d      cand.vertices i
    sha-256, 32 raw bytes, over every preceding byte

``i`` sections are int32 vertex ids and row pointers, ``d`` float64.  A
vertex is written once, in the vertex table, and as its id elsewhere, so
``int`` and ``str`` vertices (the only persistable types) keep their
type and a distance is the same ``float`` bit for bit.  ``pads.indptr``
slices centers/dists per owner, ``kpads.indptr`` per keyword,
``cand.indptr`` per (keyword, center) candidate list.

**The sections are the sketches.**  A sketch's one form is these
arrays (:class:`~repro.sketches.base.PadsArrays`,
:class:`~repro.sketches.kpads.KeywordArrays`): Algo 6 and the KPADS
merge build them, ``save_index`` writes them as they are (a sketch whose
ids index another vertex table, one flattened from hand-made dict rows,
is mapped onto the graph's) and decodes no row, and ``load_index`` wraps
the verified sections in them.  Layout and decoding live in
:mod:`repro.sketches`; this module only reads and writes sections.

**Entry order is data.**  ``estimate_with_witness``, ``reach`` and
``build_kpads`` break distance ties by first-seen, so every map is
written in iteration order and decoded in it: a loaded index answers
exactly as the built one.

**``load_index`` verifies and wraps; it decodes no sketch row.**  A
loaded sketch starts with no decoded rows, exactly like a built one, and
a probe decodes the part of a row it reads on first touch: a PADS row
(a vertex), a keyword's entries and witnesses (the estimators) or its
candidate lists (``reach``).  Batched probes and the size figures read
the arrays undecoded.  The arrays pickle as their sections, so an index
replicates to shard workers undecoded.  Reading ``entries`` decodes
every remaining row, in file order.

``save_index`` is a pure function of the index (equal indexes,
byte-identical files) and writes through
:func:`repro.ioutil.atomic_write`: a crash mid-save leaves the previous
file intact, never a torn hybrid.

``load_index`` checks, in order: the magic (an empty file, a text index
of a previous release); the trailing sha-256 on the raw buffer, before
any section is decoded (truncation, a torn trailer, a bit flip
anywhere); then version, length table, item sizes, every id's range and
every row pointer (damage older than the checksum).  The checks are
whole-section array operations, so they stay eager: damage in a row no
probe has touched yet still fails the load, never a later probe.  Each
failure raises :class:`~repro.exceptions.IndexCorruptError` and the
service quarantines the file.  A *stale* file — sound, but for another graph by
``num_vertices`` or ``graph_sha256`` (:meth:`FrozenGraph.digest
<repro.graph.frozen.FrozenGraph.digest>`) — raises the base
:class:`~repro.exceptions.IndexBuildError`: callers rebuild.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import struct
from itertools import accumulate, chain
from typing import TYPE_CHECKING, Any, Callable, List, Union

import numpy as np

from repro import faults
from repro.core.framework import PublicIndex
from repro.exceptions import IndexBuildError, IndexCorruptError
from repro.faults import points
from repro.graph.frozen import FrozenGraph, freeze
from repro.ioutil import atomic_write
from repro.sketches.base import DistanceSketch, PadsArrays
from repro.sketches.kpads import KeywordArrays, KeywordSketch

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.graph.protocol import GraphLike

__all__ = ["save_index", "load_index"]

PathLike = Union[str, "os.PathLike[str]"]

_MAGIC = b"PPKWSIDX"
_FORMAT_VERSION = 3
_DIGEST_BYTES = 32  # sha-256
#: array typecode of every section after the JSON meta, in file order
_SECTIONS = {
    "pagerank.ids": "i", "pagerank.scores": "d",
    "pads.owners": "i", "pads.indptr": "i", "pads.centers": "i", "pads.dists": "d",
    "kpads.indptr": "i", "kpads.centers": "i", "kpads.dists": "d",
    "kpads.witnesses": "i",
    "cand.indptr": "i", "cand.dists": "d", "cand.vertices": "i",
}
#: the loader's view of each typecode: little-endian whatever the platform
_DTYPES = {"i": np.dtype("<i4"), "d": np.dtype("<f8")}
#: magic, version, section count, byte length of the meta and of each section
_HEADER = struct.Struct(f"<8sII{len(_SECTIONS) + 1}Q")


def _sections(index: PublicIndex) -> List[bytes]:
    """The file's sections (meta first): the sketches' arrays as they are.

    Sketch ids index the sketch's own vertex table; one that is not the
    graph's (a sketch flattened from hand-made rows) is mapped onto it.
    """
    graph, pads, kpads = index.graph, index.pads.arrays, index.kpads.arrays
    vertices, id_of = graph.vertex_table, graph.id_table
    for v in chain(vertices, kpads.row_of):
        if isinstance(v, bool) or not isinstance(v, (int, str)):
            raise IndexBuildError(
                f"only int and str vertices can be persisted, got {type(v).__name__}"
            )
    try:
        to_pads = _graph_ids(pads.vertices, graph)
        to_kpads = _graph_ids(kpads.vertices, graph)
        scores = index.pagerank_scores
        columns = [
            np.fromiter(map(id_of.__getitem__, scores), np.int64, count=len(scores)),
            np.fromiter(scores.values(), np.float64, count=len(scores)),
            np.fromiter(map(id_of.__getitem__, pads.row_of), np.int64,
                        count=len(pads.row_of)),
            pads.indptr, to_pads(pads.centers), pads.dists,
            kpads.indptr, to_kpads(kpads.centers), kpads.dists,
            to_kpads(kpads.witnesses),
            kpads.cand_indptr, kpads.cand_dists, to_kpads(kpads.cand_vertices),
        ]
    except KeyError as exc:
        raise IndexBuildError(f"index cannot be flattened: {exc!r}") from exc
    out = [json.dumps({
        "k": index.pads.k,
        "kpads_per_center": index.kpads.per_center,
        "num_vertices": len(vertices),
        "graph_sha256": graph.digest(),
        "vertices": vertices,
        "labels": list(kpads.row_of),
    }).encode("utf-8")]
    for code, column in zip(_SECTIONS.values(), columns):
        out.append(np.asarray(column).astype(_DTYPES[code], copy=False).tobytes())
    return out


def _graph_ids(table: List[Any], graph: FrozenGraph) -> Callable[[Any], Any]:
    """Ids into ``table`` -> ids into ``graph``'s vertex table."""
    if table is graph.vertex_table or table == graph.vertex_table:
        return lambda ids: ids
    lut = np.fromiter(map(graph.id_table.__getitem__, table), np.int64, count=len(table))
    return lut.__getitem__


def save_index(index: PublicIndex, path: PathLike) -> None:
    """Write a :class:`PublicIndex` to ``path`` atomically (binary v3).

    The new file becomes visible at ``path`` only after it is complete
    and fsynced; a crash at any instant leaves the previous contents of
    ``path`` (or no file) — never a torn write.
    """
    sections = _sections(index)
    head = _HEADER.pack(_MAGIC, _FORMAT_VERSION, len(sections), *map(len, sections))
    digest = hashlib.sha256()
    with atomic_write(
        os.fspath(path), points.PERSIST_SAVE_WRITE, points.PERSIST_SAVE_FSYNC,
        points.PERSIST_SAVE_RENAME, binary=True,
    ) as fh:
        for block in (head, *sections):
            digest.update(block)
            fh.write(block)
        fh.write(digest.digest())


def _verified_sections(path: PathLike, raw: bytes) -> List[memoryview]:
    """Integrity-check the raw file; return its sections, undecoded."""
    if not raw:
        raise IndexCorruptError(path, "empty index file")
    if raw[: len(_MAGIC)] != _MAGIC:
        raise IndexCorruptError(path, "unsupported index format (no v3 magic)")
    view = memoryview(raw)
    body = len(raw) - _DIGEST_BYTES
    if body < _HEADER.size or hashlib.sha256(view[:body]).digest() != view[body:]:
        raise IndexCorruptError(path, "checksum mismatch (torn write or bit flip?)")
    _, version, count, *lengths = _HEADER.unpack_from(raw)
    if version != _FORMAT_VERSION:
        raise IndexCorruptError(path, f"unsupported index format version {version}")
    bounds = list(accumulate(lengths, initial=_HEADER.size))
    if count != len(lengths) or bounds[-1] != body:
        reason = f"section table: {count} sections end at byte {bounds[-1]} of {body}"
        raise IndexCorruptError(path, reason)
    return [view[a:b] for a, b in zip(bounds, bounds[1:])]


def load_index(graph: "GraphLike", path: PathLike) -> PublicIndex:
    """Read a :class:`PublicIndex` previously written by :func:`save_index`.

    ``graph`` must be the public graph the index was built over; it is
    frozen first, as :meth:`PublicIndex.build` does, and the returned
    index serves that :class:`~repro.graph.frozen.FrozenGraph`.  Raises
    :class:`~repro.exceptions.IndexCorruptError` when the file fails an
    integrity check and plain
    :class:`~repro.exceptions.IndexBuildError` when it is merely stale
    for ``graph``.  Every check runs here; the sketches then decode each
    row from the verified sections on its first lookup.

    The cyclic GC is not paused: the load builds a vertex list and two
    row tables, not the million containers that once made a pause pay.
    The closing ``gc.collect()`` stays.  It promotes what the caller has
    just built (the public graph) here rather than inside the first
    attach, which it halves (18.4 -> 9.2 ms on the bench graph, at no
    measurable ``setup_s`` cost; EXPERIMENTS.md, "Sketch rows decoded on
    first touch").
    """
    faults.fire(points.PERSIST_LOAD_READ)
    with open(path, "rb") as fh:
        raw = fh.read()
    sections = _verified_sections(path, raw)
    try:
        index = _decode(graph, sections)
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        # Checksum fine but undecodable: damaged before it was computed.
        raise IndexCorruptError(path, f"undecodable index: {exc!r}") from exc
    gc.collect()
    return index


def _decode(graph: "GraphLike", sections: List[memoryview]) -> PublicIndex:
    meta, views = json.loads(bytes(sections[0])), dict(zip(_SECTIONS, sections[1:]))
    vertices, labels, k = meta["vertices"], meta["labels"], meta["k"]
    graph = freeze(graph)
    if (
        meta["num_vertices"] != graph.num_vertices
        or meta["graph_sha256"] != graph.digest()
    ):  # stale, not corrupt: callers rebuild silently
        raise IndexBuildError(
            f"index is for another graph (of {meta['num_vertices']} vertices)"
        )

    def column(name: str) -> Any:
        """Section ``name`` as a read-only little-endian view, no copy."""
        dtype = _DTYPES[_SECTIONS[name]]
        if len(views[name]) % dtype.itemsize:
            raise ValueError(f"{name}: length is not a multiple of the item size")
        return np.frombuffer(views[name], dtype=dtype)

    def vertex_column(name: str) -> Any:
        ids = column(name)
        if ids.size and not 0 <= ids.min() <= ids.max() < len(vertices):
            raise ValueError(f"{name}: vertex id out of range")
        return ids

    def indptr(name: str, rows: int, *columns: Any) -> Any:
        """Row pointer ``name``: ``rows`` slices of equally long ``columns``."""
        ptr = column(name)
        shaped = len(ptr) == rows + 1 and ptr[0] == 0 and (ptr[1:] >= ptr[:-1]).all()
        if not shaped or any(len(c) != ptr[-1] for c in columns):
            raise ValueError(f"{name}: does not slice its columns")
        return ptr

    ids, scores = vertex_column("pagerank.ids"), column("pagerank.scores")
    if len(ids) != len(scores):
        raise ValueError("pagerank: ids and scores differ in length")
    owners = vertex_column("pads.owners")
    centers, dists = vertex_column("pads.centers"), column("pads.dists")
    pads = PadsArrays(
        vertices, {vertices[i]: row for row, i in enumerate(owners.tolist())},
        indptr("pads.indptr", len(owners), centers, dists), centers, dists,
    )
    centers, dists = vertex_column("kpads.centers"), column("kpads.dists")
    witnesses = vertex_column("kpads.witnesses")
    cand_dists, cand_vertices = column("cand.dists"), vertex_column("cand.vertices")
    cand_ptr = indptr("cand.indptr", len(centers), cand_dists, cand_vertices)
    kpads = KeywordArrays(
        vertices, labels,
        indptr("kpads.indptr", len(labels), centers, dists, witnesses),
        centers, dists, witnesses, cand_ptr, cand_dists, cand_vertices,
    )
    per_center = meta["kpads_per_center"]
    return PublicIndex(
        graph,
        DistanceSketch({}, k, kind="PADS", arrays=pads),
        KeywordSketch({}, {}, k, per_center=per_center, arrays=kpads),
        dict(zip(map(vertices.__getitem__, ids.tolist()), scores.tolist())),
    )
